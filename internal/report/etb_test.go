package report_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// The paper's §4.3 "Using ubdm" over the etb generator: the task alone
// gives its isolation time and nr, ETB = isolation + nr·ubdm, and the
// contended rows check the bound.

// etbCheck runs an etb plan and reads the check and its text rendering
// back from the rows.
func etbCheck(t *testing.T, params scenario.Params) (*report.ETBData, string) {
	t.Helper()
	jobs, results := runGenerator(t, "etb", params)
	data, err := report.ETBFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	return data, renderText(t, "etb", jobs, results)
}

// TestETBBoundArithmetic: the bound pads the isolation row's time with
// its request count times ubdm.
func TestETBBoundArithmetic(t *testing.T) {
	d, _ := etbCheck(t, scenario.Params{"task": "tblook", "seed": 7, "count": 1})
	if d.UBDm != 27 || d.EqOne != 27 {
		t.Errorf("ubdm %d (Eq. 1 %d), want the default Eq. 1 27", d.UBDm, d.EqOne)
	}
	if d.ETB != d.Isolation+d.Requests*27 {
		t.Errorf("ETB %d != %d + %d×27", d.ETB, d.Isolation, d.Requests)
	}
	if d.Requests == 0 {
		t.Error("tblook must issue bus requests")
	}
	if s := d.PadShare(); s <= 0 || s >= 1 {
		t.Errorf("pad share = %v", s)
	}
	if (&report.ETBData{}).PadShare() != 0 {
		t.Error("empty bound pad share")
	}
}

// TestETBValidationHeadroom: each contended row's verdict and headroom
// (ETB/observed − 1) follow from the bound.
func TestETBValidationHeadroom(t *testing.T) {
	d, _ := etbCheck(t, scenario.Params{"task": "tblook", "seed": 7, "count": 1})
	if len(d.Checks) != 2 {
		t.Fatalf("%d checks, want rsk and set0", len(d.Checks))
	}
	for _, c := range d.Checks {
		if c.Holds != (c.Observed <= d.ETB) || c.Headroom != float64(d.ETB)/float64(c.Observed)-1 {
			t.Errorf("check %+v against ETB %d", c, d.ETB)
		}
	}
}

// TestETBBounds: one etb plan per task gives one bound, named after its
// task.
func TestETBBounds(t *testing.T) {
	for _, task := range []string{"tblook", "canrdr"} {
		d, _ := etbCheck(t, scenario.Params{"task": task, "seed": 7, "count": 0})
		if d.Task != task {
			t.Errorf("bound of %q, want %q", d.Task, task)
		}
		if d.ETB <= d.Isolation {
			t.Errorf("%s: ETB %d does not pad isolation %d", task, d.ETB, d.Isolation)
		}
	}
}

// TestETBHoldsAtEq1 is the safety property the methodology exists for:
// padded with Eq. 1's ubd, the bound holds even against Nc−1 maximally
// adversarial rsk contenders.
func TestETBHoldsAtEq1(t *testing.T) {
	for _, task := range []string{"tblook", "matrix", "canrdr", "pntrch"} {
		d, _ := etbCheck(t, scenario.Params{"task": task, "seed": 7, "count": 0})
		if len(d.Checks) != 1 || d.Checks[0].Scenario != "rsk" {
			t.Fatalf("%s: checks %+v, want the rsk row alone", task, d.Checks)
		}
		if c := d.Checks[0]; !c.Holds {
			t.Errorf("%s: bound %d violated by %s (observed %d)", task, d.ETB, c.Scenario, c.Observed)
		}
	}
}

// TestETBReportRendering: the text of a plan whose bound holds names the
// task, ubdm and pad share, and reports every contended run as HOLDS.
func TestETBReportRendering(t *testing.T) {
	_, text := etbCheck(t, scenario.Params{"task": "canrdr", "seed": 7, "count": 0})
	for _, want := range []string{"canrdr", "HOLDS", "ubdm=27", "pad%", "3×rsk:load", "the bound holds in all 1 contended runs"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "VIOLATED") {
		t.Errorf("rendering reports a violation:\n%s", text)
	}
}

// TestETBViolatedAtUBDm1: padding with an underestimate (a naive ubdm of
// 1) is caught by the rsk row of a contention-sensitive task.
func TestETBViolatedAtUBDm1(t *testing.T) {
	d, text := etbCheck(t, scenario.Params{"task": "tblook", "seed": 7, "count": 0, "ubdm": 1})
	if d.UBDm != 1 || d.ETB != d.Isolation+d.Requests {
		t.Errorf("ubdm %d, ETB %d, want 1 and %d", d.UBDm, d.ETB, d.Isolation+d.Requests)
	}
	if c := d.Checks[0]; c.Holds || c.Headroom >= 0 {
		t.Errorf("ubdm=1 bound unexpectedly held: observed %d bound %d", c.Observed, d.ETB)
	}
	for _, want := range []string{"rsk       3×rsk:load", "VIOLATED", "the bound is VIOLATED in 1 of 1 contended runs"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering lacks %q:\n%s", want, text)
		}
	}
}

// TestETBRandomSetsHold: every random task set is a named contended row
// and respects the Eq. 1 bound.
func TestETBRandomSetsHold(t *testing.T) {
	d, _ := etbCheck(t, scenario.Params{"task": "tblook", "seed": 11, "count": 3})
	if len(d.Checks) != 4 {
		t.Fatalf("%d checks, want rsk plus 3 sets", len(d.Checks))
	}
	for i, c := range d.Checks[1:] {
		if want := fmt.Sprintf("set%d", i); c.Scenario != want || len(c.Contenders) != 3 {
			t.Errorf("check %d = %+v, want %s against 3 named tasks", i+1, c, want)
		}
		if !c.Holds {
			t.Errorf("bound %d violated by %s %v (observed %d)", d.ETB, c.Scenario, c.Contenders, c.Observed)
		}
	}
}

// TestETBStoreOnlyTaskInsensitive: a small-footprint task (all loads
// DL1-resident, a few buffered stores) is contention-insensitive: its
// observed time under rsk attack equals isolation, and the ETB is wildly
// conservative — the Fig. 7(b) phenomenon surfacing in MBTA practice.
func TestETBStoreOnlyTaskInsensitive(t *testing.T) {
	d, _ := etbCheck(t, scenario.Params{"task": "puwmod", "seed": 7, "count": 0})
	c := d.Checks[0]
	if !c.Holds {
		t.Fatal("bound must hold")
	}
	if slow := float64(c.Observed) / float64(d.Isolation); slow > 1.02 {
		t.Errorf("store-buffered task slowed %.2fx under rsk; expected ≈ 1.0", slow)
	}
}

// TestETBWarmStore: an etb plan run cold and then warm on a directory
// store simulates nothing the second time and renders the same bytes;
// the same rows then check another ubdm without a simulation.
func TestETBWarmStore(t *testing.T) {
	st, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	params := scenario.Params{"task": "tblook", "seed": 7, "count": 2}
	render := func(params scenario.Params) (*store.Session, string) {
		t.Helper()
		c, err := scenario.CompileGenerator("etb", params)
		if err != nil {
			t.Fatal(err)
		}
		sess := &store.Session{Store: st}
		results, err := sess.RunAll(c)
		if err != nil {
			t.Fatal(err)
		}
		return sess, renderText(t, "etb", c.Jobs, results)
	}
	cold, coldText := render(params)
	if cold.Simulated() != 4 || cold.StoreHits() != 0 {
		t.Errorf("cold: simulated %d, hits %d, want 4 and 0", cold.Simulated(), cold.StoreHits())
	}
	warm, warmText := render(params)
	if warm.Simulated() != 0 || warm.StoreHits() != 4 {
		t.Errorf("warm: simulated %d, hits %d, want 0 and 4", warm.Simulated(), warm.StoreHits())
	}
	if warmText != coldText {
		t.Errorf("warm render differs from cold:\n--- cold ---\n%s--- warm ---\n%s", coldText, warmText)
	}
	params["ubdm"] = 1
	other, otherText := render(params)
	if other.Simulated() != 0 {
		t.Errorf("ubdm 1 over the same rows simulated %d jobs", other.Simulated())
	}
	if !strings.Contains(otherText, "ubdm=1") || !strings.Contains(otherText, "VIOLATED") {
		t.Errorf("ubdm 1 rendering:\n%s", otherText)
	}
}
