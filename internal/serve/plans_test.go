package serve_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rrbus/internal/report"
	"rrbus/internal/serve"
	"rrbus/internal/store"
)

// TestPlansDocumentLongNameAligned checks the text listing behind
// `rrbus-store ls` with a plan name longer than the default name column
// (the derivation passes' `derive/<arch>/<type>/k=1..N`): every row keeps
// each cell under its header label.
func TestPlansDocumentLongNameAligned(t *testing.T) {
	infos := []store.PlanInfo{
		{Hash: strings.Repeat("a", 64), Name: "fig7", Generator: "fig7", Jobs: 24, Present: 24},
		{Hash: strings.Repeat("b", 64), Name: "derive/toy/load/k=1..40", Jobs: 41, Present: 41},
		{Hash: strings.Repeat("c", 64), Generator: "mix", Jobs: 8, Present: 2},
	}
	backend, err := report.BackendFor("text")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.RenderTo(&buf, serve.PlansDocument("st", infos, 73), backend); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	h := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "plan ") {
			h = i
			break
		}
	}
	if h < 0 || h+len(infos) >= len(lines) {
		t.Fatalf("no plan table in the listing:\n%s", buf.String())
	}
	header := lines[h]
	// Names and generators are left-aligned under their label; counts and
	// the coverage are right-aligned to their label's end.
	left := func(label string) int { return strings.Index(header, label) }
	right := func(label string) int { return strings.Index(header, label) + len(label) }
	for i, p := range infos {
		row := lines[h+1+i]
		if len(row) != len(header) {
			t.Errorf("row %d is %d bytes wide, header %d:\n%s\n%s", i, len(row), len(header), header, row)
			continue
		}
		name, gen := p.Name, p.Generator
		if name == "" {
			name = "-"
		}
		if gen == "" {
			gen = "-"
		}
		for _, c := range []struct {
			cell string
			ok   bool
		}{
			{name, strings.HasPrefix(row[left("name"):], name+" ")},
			{gen, strings.HasPrefix(row[left("generator"):], gen+" ")},
			{"jobs", strings.HasSuffix(row[:right("jobs")], fmt.Sprintf(" %d", p.Jobs))},
			{"present", strings.HasSuffix(row[:right("present")], fmt.Sprintf(" %d", p.Present))},
			{"coverage", strings.HasSuffix(row[:right("coverage")], fmt.Sprintf(" %.1f%%", 100*float64(p.Present)/float64(p.Jobs)))},
		} {
			if !c.ok {
				t.Errorf("row %d: %s is not under its header label:\n%s\n%s", i, c.cell, header, row)
			}
		}
	}
}
