package core_test

import (
	"strings"
	"testing"

	"rrbus/internal/core"
)

func TestReportRendering(t *testing.T) {
	res, err := deriveFake(newFake(27, 1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Report()
	for _, want := range []string{"derived ubdm        27", "saw-tooth period    27", "confidence", "exact=27", "modelfit=27", "per-request slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportIncludesNotes(t *testing.T) {
	f := newFake(27, 1)
	f.util = 0.5
	res, err := deriveFake(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Report(), "note:") {
		t.Error("low-utilization note missing from report")
	}
}

func TestSawtoothPlot(t *testing.T) {
	res := &core.Result{KMin: 1, Slowdowns: []float64{26, 25, 24, 23, 22, 26, 25, 24, 23, 22}}
	plot := res.SawtoothPlot(5)
	if plot == "" {
		t.Fatal("plot empty")
	}
	lines := strings.Split(strings.TrimRight(plot, "\n"), "\n")
	// rows + axis label line.
	if len(lines) != 6 {
		t.Fatalf("plot lines = %d:\n%s", len(lines), plot)
	}
	if !strings.Contains(lines[0], "26.0") || !strings.Contains(lines[4], "22.0") {
		t.Errorf("scale labels missing:\n%s", plot)
	}
	// Peaks (value 26) must reach the top row; troughs must not.
	if !strings.Contains(lines[0], "#") {
		t.Error("no peak at top row")
	}
}

func TestSawtoothPlotDegenerate(t *testing.T) {
	if (&core.Result{Slowdowns: []float64{1}}).SawtoothPlot(8) != "" {
		t.Error("single point must not plot")
	}
	if (&core.Result{Slowdowns: []float64{5, 5, 5}}).SawtoothPlot(8) != "" {
		t.Error("flat series must not plot")
	}
	if (&core.Result{Slowdowns: []float64{1, 2, 3}}).SawtoothPlot(1) != "" {
		t.Error("single row must not plot")
	}
}

func TestSawtoothPlotWidthCap(t *testing.T) {
	d := make([]float64, 500)
	for i := range d {
		d[i] = float64(i % 27)
	}
	res := &core.Result{KMin: 1, Slowdowns: d}
	plot := res.SawtoothPlot(8)
	for _, line := range strings.Split(plot, "\n") {
		if len(line) > 140 {
			t.Fatalf("plot line too wide: %d chars", len(line))
		}
	}
}
