package report

import (
	"fmt"
	"strings"

	"rrbus/internal/isa"
	"rrbus/internal/scenario"
)

// The per-generator document renderers: one per generator, each
// producing the complete figure as a typed Document (heading included)
// so a live scenario run and a JSONL replay build identical documents —
// and, through the text backend, print identical bytes.

// Fig2 renders the Fig. 2 timeline from the fig2 generator's recorded
// result.
func Fig2(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	tl, err := fig2Timeline(jobs, results)
	if err != nil {
		return nil, err
	}
	cfg, err := buildCfg(jobs[0])
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 2"}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("Fig 2: request with δ=%d on %s platform (ubd=%d) suffers γ=%d",
			tl.Delta, cfg.Name, cfg.UBD(), tl.Gamma)},
		tl,
		Spacer{},
	), nil
}

// Fig3 renders the γ(δ) matrix of Fig. 3.
func Fig3(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	return gammaFig("Fig 3: γ(δ) matrix", jobs, results)
}

// Fig4 renders the saw-tooth γ(δ) overlay of Fig. 4.
func Fig4(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	return gammaFig("Fig 4: saw-tooth γ(δ)", jobs, results)
}

func gammaFig(title string, jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	rows, err := GammaRowsFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	cfg, err := buildCfg(jobs[0])
	if err != nil {
		return nil, err
	}
	d := &Document{Title: title}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("%s on %s platform (ubd=%d)", title, cfg.Name, cfg.UBD())},
		gammaTable(rows),
		Spacer{},
	), nil
}

// Fig5 renders the nop-insertion timelines of Fig. 5.
func Fig5(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	blocks, err := fig5Timelines(jobs, results)
	if err != nil {
		return nil, err
	}
	cfg, err := buildCfg(jobs[0])
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 5"}
	d.Add(Heading{Level: 1, Text: fmt.Sprintf("Fig 5: nop insertion timelines on %s platform", cfg.Name)})
	for _, tl := range blocks {
		d.Add(
			Heading{Level: 2, Text: fmt.Sprintf("k=%d (δ=%d) → γ=%d", tl.K, tl.Delta, tl.Gamma)},
			tl,
		)
	}
	return d.Add(Spacer{}), nil
}

// Fig6a renders the ready-contender comparison of Fig. 6(a).
func Fig6a(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	data, err := Fig6aFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 6a"}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("Fig 6a: ready contenders at scua requests (%d workloads)", len(data.WorkloadNames))},
		data.table(),
		Spacer{},
		Paragraph{Text: "workloads: " + strings.Join(data.WorkloadNames, ", ")},
		Spacer{},
	), nil
}

// Fig6b renders the contention-delay histograms of Fig. 6(b).
func Fig6b(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	rows, err := Fig6bFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	cfg, err := buildCfg(jobs[0])
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 6b"}
	d.Add(Heading{Level: 1, Text: fmt.Sprintf("Fig 6b: contention-delay histograms of rsk vs %d rsk", cfg.Cores-1)})
	for _, r := range rows {
		d.Add(r.histogram(), Spacer{})
	}
	return d, nil
}

// Fig7 renders a single recorded slowdown sweep (the generic fig7
// generator).
func Fig7(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	pts, err := SweepPointsFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	typ, _, err := parseRSKNop(jobs[0].Scenario.Workload.Scua)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 7"}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("Fig 7: rsk-nop(%s) slowdown sweep (%s)", typ, results[0].Platform)},
		sweepSeries(pts),
		Spacer{},
	), nil
}

// Fig7a renders the two-architecture load sweep of Fig. 7(a).
func Fig7a(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	data, err := Fig7aFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 7a"}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("Fig 7a: rsk-nop(load) slowdown sweep (%s & %s)",
			results[0].Platform, results[len(results)-1].Platform)},
		data.series(),
		Spacer{},
	), nil
}

// Fig7b renders the store sweep of Fig. 7(b).
func Fig7b(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	data, err := Fig7bFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Fig 7b"}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("Fig 7b: rsk-nop(store) slowdown sweep (%s)", results[0].Platform)},
		data.series(),
		Spacer{},
	), nil
}

// Derive renders the derivation report of a recorded derive block.
func Derive(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	der, err := DerivationFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	return der.Document(), nil
}

// Document renders the derivation report: the paper's methodology
// outcome next to Eq. 1 ground truth.
func (d *Derivation) Document() *Document {
	return (&Document{Title: "derivation"}).Add(d.Bounds())
}

// Bounds flattens the derivation into its typed document block.
func (d *Derivation) Bounds() Bounds {
	typ := "load"
	if d.Type == isa.OpStore {
		typ = "store"
	}
	b := Bounds{
		Platform:   d.Cfg.Name,
		Cores:      d.Cfg.Cores,
		LBus:       d.Cfg.BusLatency(),
		AccessType: typ,
		ActualUBD:  d.Cfg.UBD(),
		Res:        boundsResult(d.Res),
	}
	if d.Err != nil {
		b.Err = d.Err.Error()
	}
	return b
}

// AblArb renders the E9a arbitration-policy ablation.
func AblArb(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	rows, err := ArbitersFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Ablation: arbitration policies"}
	return d.Add(
		Heading{Level: 1, Text: "Ablation: arbitration policies"},
		arbitersTable(rows),
		Spacer{},
	), nil
}

// AblDeltaNop renders the E9b δnop-sampling ablation.
func AblDeltaNop(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	rows, err := DeltaNopsFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Ablation: δnop > 1 sampling"}
	return d.Add(
		Heading{Level: 1, Text: "Ablation: δnop > 1 sampling"},
		deltaNopTable(rows),
		Spacer{},
	), nil
}

// AblScaling renders the E9c geometry ablation.
func AblScaling(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	rows, err := ScalingFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	d := &Document{Title: "Ablation: Eq. 1 recovery across geometries"}
	return d.Add(
		Heading{Level: 1, Text: "Ablation: Eq. 1 recovery across geometries"},
		scalingTable(rows),
		Spacer{},
	), nil
}
