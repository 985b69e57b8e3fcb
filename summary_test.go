package rrbus_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrbus"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// summaryTableText renders only the table block of the headline summary
// document, the bytes summary.golden holds.
func summaryTableText(t *testing.T, rows []rrbus.SummaryRow) string {
	t.Helper()
	for _, blk := range rrbus.SummaryDocument(rows).Blocks {
		if tbl, ok := blk.(rrbus.TableBlock); ok {
			return (&rrbus.Document{}).Add(tbl).Text()
		}
	}
	t.Fatal("summary document has no table")
	return ""
}

func TestSummaryTable(t *testing.T) {
	rows, err := rrbus.Summary(rrbus.ReferenceNGMP(), rrbus.VariantNGMP())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Arch, r.Err)
		}
		if r.DerivedUBDm != 27 || r.ActualUBD != 27 {
			t.Errorf("%s: derived %d, actual %d", r.Arch, r.DerivedUBDm, r.ActualUBD)
		}
		if r.NaiveUBDm >= r.ActualUBD {
			t.Errorf("%s: naive %d must underestimate", r.Arch, r.NaiveUBDm)
		}
		if r.Confidence != 1 {
			t.Errorf("%s: confidence %.2f", r.Arch, r.Confidence)
		}
	}
	if rows[0].NaiveUBDm != 26 || rows[1].NaiveUBDm != 23 {
		t.Errorf("naive values %d/%d, paper reports 26/23", rows[0].NaiveUBDm, rows[1].NaiveUBDm)
	}
	out := rrbus.SummaryDocument(rows).Text()
	if !strings.Contains(out, "ngmp-ref") || !strings.Contains(out, "ngmp-var") {
		t.Error("render incomplete")
	}
}

// TestSummaryGolden pins the headline summary table's text rendering to
// the bytes recorded before the Document redesign (on the toy platform,
// whose derivation sweep is cheap). The golden sits with the other
// report goldens; the derivation that fills the rows lives here.
func TestSummaryGolden(t *testing.T) {
	toy, err := rrbus.PlatformByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rrbus.Summary(toy)
	if err != nil {
		t.Fatal(err)
	}
	got := summaryTableText(t, rows)
	path := filepath.Join("internal", "report", "testdata", "summary.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("summary table drifted from the pre-redesign golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
