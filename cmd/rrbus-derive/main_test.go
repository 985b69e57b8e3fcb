package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"rrbus"
)

func jsonText(t *testing.T, rep jsonReport) string {
	t.Helper()
	var b bytes.Buffer
	if err := writeJSON(&b, rep); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFlatReportNaiveField pins both -json shapes: the scenario path
// measures no naive baseline and leaves naive_ubdm out, the flag mode
// always reports the measured value — even a measured 0.
func TestFlatReportNaiveField(t *testing.T) {
	ctx := context.Background()
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}
	toy := rrbus.PlatformSpec{Arch: "toy"}
	d, err := rrbus.RunDerivation(ctx, sess, toy, rrbus.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := rrbus.NaiveUBDM(ctx, sess, toy, rrbus.OpLoad)
	if err != nil {
		t.Fatal(err)
	}

	scenario := jsonText(t, flatReport(d, nil, false))
	if strings.Contains(scenario, "naive_ubdm") {
		t.Errorf("scenario-path report claims a naive estimate:\n%s", scenario)
	}
	flagMode := jsonText(t, flatReport(d, nv, false))
	want := strings.Replace(scenario, "\"confidence\": 1\n", "\"confidence\": 1,\n  \"naive_ubdm\": 5\n", 1)
	if flagMode != want {
		t.Errorf("flag-mode report:\n%s\nwant the scenario report plus naive_ubdm 5:\n%s", flagMode, want)
	}
	if zero := jsonText(t, flatReport(d, &rrbus.NaiveResult{}, false)); !strings.Contains(zero, "\"naive_ubdm\": 0") {
		t.Errorf("a measured naive 0 must be reported:\n%s", zero)
	}
}
