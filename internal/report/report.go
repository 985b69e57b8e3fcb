// Package report is the analysis half of the measurement→analysis
// pipeline: renderers that rebuild every figure, table and derived bound
// of the paper's evaluation from recorded scenario results — never from
// live simulation.
//
// Each renderer is a pure function over (jobs, results): the declarative
// job list a scenario plan expands to, and one scenario.Result per job.
// Where the results came from is irrelevant — streamed live from a
// store.Session moments ago, or decoded from a merged JSONL file written
// on another machine last month (scenario.ReadResults). Because the job
// list is itself a pure function of the plan, a replayed rendering is
// byte-identical to the live run's: simulate once, analyze forever.
//
// Renderers produce a typed Document — an ordered list of blocks
// (headings, typed-column tables, sweep series, trace-event timelines,
// γ histograms, derived-bound summaries) — and a Backend encodes the
// Document: TextBackend reproduces the legacy terminal output byte for
// byte (golden-tested per generator), HTMLBackend emits a self-contained
// page with inline SVG charts, JSONBackend a schema-versioned
// machine-readable encoding that decodes back into the same Document.
//
// Renderers may rebuild pure artifacts from the declarative inputs —
// platform configs (PlatformSpec.Build) for Eq. 1 ground truth, kernel
// programs for instruction counts, Eq. 2 closed forms — but never run a
// simulation; nothing here calls sim.Run. Derived bounds re-run only
// the detection half of the methodology (core.DeriveFromSeries) over the
// recorded slowdown series, with δnop taken from the in-band calibration
// row every derivation-shaped generator emits.
package report

import (
	"fmt"

	"rrbus/internal/scenario"
	"rrbus/internal/sim"
)

// Renderer rebuilds one figure/table document from a generator's
// recorded results.
type Renderer func(jobs []scenario.Job, results []scenario.Result) (*Document, error)

// For returns the renderer for a generator's job lists.
func For(generator string) (Renderer, bool) {
	switch generator {
	case "fig2":
		return Fig2, true
	case "fig3":
		return Fig3, true
	case "fig4":
		return Fig4, true
	case "fig5":
		return Fig5, true
	case "fig6a":
		return Fig6a, true
	case "fig6b":
		return Fig6b, true
	case "fig7":
		return Fig7, true
	case "fig7a":
		return Fig7a, true
	case "fig7b":
		return Fig7b, true
	case "derive":
		return Derive, true
	case "abl-arb":
		return AblArb, true
	case "abl-dnop":
		return AblDeltaNop, true
	case "abl-scaling":
		return AblScaling, true
	case "etb":
		return ETB, true
	}
	return nil, false
}

// Check validates that results line up with the job list: one result per
// job, IDs matching. This is what catches replaying a JSONL file against
// the wrong plan (or a truncated recording) before a renderer quietly
// mislabels rows.
func Check(jobs []scenario.Job, results []scenario.Result) error {
	if len(results) != len(jobs) {
		return fmt.Errorf("report: %d results for %d jobs — truncated recording or wrong plan?", len(results), len(jobs))
	}
	for i := range results {
		if results[i].ID != "" && results[i].ID != jobs[i].ID {
			return fmt.Errorf("report: result %d is %q but the plan's job %d is %q — results from a different plan?",
				i, results[i].ID, i, jobs[i].ID)
		}
	}
	return nil
}

// DocumentFor validates results against the job list and builds the
// generator's Document; generators without a dedicated figure (mix,
// explicit job lists) fall back to the generic results table — callers
// that must not fall back silently can distinguish via For.
func DocumentFor(generator string, jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	if err := Check(jobs, results); err != nil {
		return nil, err
	}
	if r, ok := For(generator); ok {
		doc, err := r(jobs, results)
		if err != nil {
			return nil, err
		}
		doc.Generator = generator
		return doc, nil
	}
	doc := ResultsTable(results)
	doc.Generator = generator
	return doc, nil
}

// Render is the text-backend convenience over DocumentFor: the legacy
// terminal rendering, byte-identical to the pre-Document renderers.
func Render(generator string, jobs []scenario.Job, results []scenario.Result) (string, error) {
	doc, err := DocumentFor(generator, jobs, results)
	if err != nil {
		return "", err
	}
	return doc.Text(), nil
}

// buildCfg rebuilds a job's platform configuration from its declarative
// spec — construction only, no simulation.
func buildCfg(j scenario.Job) (sim.Config, error) {
	return j.Scenario.Platform.Build()
}
