package serve

import (
	"fmt"
	"unicode/utf8"

	"rrbus/internal/report"
	"rrbus/internal/store"
)

// PlansDocument builds the plan-manifest audit listing as a Document —
// one row per recorded plan with its name, generator, job count and
// current row coverage. It is the single builder behind both
// `rrbus-store ls` and the server's GET /v1/store/plans, so the audit
// CLI and the HTTP surface agree on the plan-manifest document byte for
// byte — including the JSON encoding, which round-trips losslessly
// through report.DecodeDocument like every backend document.
func PlansDocument(label string, infos []store.PlanInfo, rows int) *report.Document {
	doc := &report.Document{Title: "store " + label}
	doc.Add(report.Heading{Level: 1, Text: fmt.Sprintf("store %s: %d plans, %d rows", label, len(infos), rows)})
	// The name column is as wide as the longest name, at least 20, so a
	// long plan name (a derivation pass's `derive/<arch>/<type>/k=1..N`)
	// does not push the columns after it out of line.
	nameWidth := 20
	for _, p := range infos {
		nameWidth = max(nameWidth, utf8.RuneCountInString(p.Name))
	}
	t := report.Table{
		Name:   "plans",
		Header: fmt.Sprintf("plan          %-*s  generator    jobs  present  coverage", nameWidth, "name"),
		Columns: []report.Column{
			{Key: "hash", Label: "plan", Format: "%-12.12s"},
			{Key: "name", Label: "name", Format: fmt.Sprintf("  %%-%ds", nameWidth)},
			{Key: "generator", Label: "generator", Format: "  %-11s"},
			{Key: "jobs", Label: "jobs", Format: "  %4d"},
			{Key: "present", Label: "present", Format: "  %7d"},
			{Key: "coverage_pct", Label: "coverage", Format: "  %7.1f%%"},
		},
	}
	for _, p := range infos {
		coverage := 0.0
		if p.Jobs > 0 {
			coverage = 100 * float64(p.Present) / float64(p.Jobs)
		}
		name, gen := p.Name, p.Generator
		if name == "" {
			name = "-"
		}
		if gen == "" {
			gen = "-"
		}
		row := report.Row{Cells: []report.Value{
			report.StringV(p.Hash), report.StringV(name), report.StringV(gen),
			report.IntV(p.Jobs), report.IntV(p.Present), report.FloatV(coverage),
		}}
		if p.Err != "" {
			row.Note = "  ERR: " + p.Err
		}
		t.Rows = append(t.Rows, row)
	}
	doc.Add(t)
	return doc
}
