// Package etb operationalizes the paper's §4.3 "Using ubdm": turning a
// derived per-request contention bound into execution-time bounds (ETB) for
// measurement-based timing analysis, and validating those bounds against
// observed contention scenarios.
//
// The MBTA recipe is: measure the task in isolation, read its bus-request
// count nr from a PMC, and pad:
//
//	ETB = ExecTime_isolation + nr * ubdm
//
// The package also reports the per-access view used by static timing
// analysis (STA "adds ubdm to the access time to the bus"), which yields
// the identical pad for a known request count.
package etb

import (
	"fmt"
	"sort"
	"strings"

	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/sim"
	"rrbus/internal/workload"
)

// Task is a software component under analysis.
type Task struct {
	// Name labels the task in reports.
	Name string
	// Prog is the task's program.
	Prog *isa.Program
}

// Bound is one task's derived execution-time bound.
type Bound struct {
	// Task is the task name.
	Task string
	// Isolation is the measured isolation execution time (cycles).
	Isolation uint64
	// Requests is nr, the task's bus-request count over the measured
	// window (PMC).
	Requests uint64
	// UBDm is the per-request bound used for padding.
	UBDm int
	// ETB is Isolation + Requests*UBDm.
	ETB uint64
}

// PadShare returns the fraction of the bound attributable to contention
// padding.
func (b Bound) PadShare() float64 {
	if b.ETB == 0 {
		return 0
	}
	return float64(b.ETB-b.Isolation) / float64(b.ETB)
}

// Analyzer derives bounds for tasks on one platform with one ubdm.
type Analyzer struct {
	cfg  sim.Config
	ubdm int
	opts sim.RunOpts
}

// NewAnalyzer builds an analyzer. ubdm is the derived per-request bound
// (from rrbus.DeriveUBD or a hardware measurement campaign); opts control
// the measurement windows (zero values select the harness defaults).
func NewAnalyzer(cfg sim.Config, ubdm int, opts sim.RunOpts) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ubdm <= 0 {
		return nil, fmt.Errorf("etb: non-positive ubdm %d", ubdm)
	}
	return &Analyzer{cfg: cfg, ubdm: ubdm, opts: opts}, nil
}

// Bound measures the task in isolation and pads.
func (a *Analyzer) Bound(t Task) (Bound, error) {
	if t.Prog == nil {
		return Bound{}, fmt.Errorf("etb: task %q has no program", t.Name)
	}
	m, err := sim.RunIsolation(a.cfg, t.Prog, a.opts)
	if err != nil {
		return Bound{}, fmt.Errorf("etb: isolating %q: %w", t.Name, err)
	}
	return Bound{
		Task:      t.Name,
		Isolation: m.Cycles,
		Requests:  m.Requests,
		UBDm:      a.ubdm,
		ETB:       m.Cycles + m.Requests*uint64(a.ubdm),
	}, nil
}

// Bounds analyzes several tasks.
func (a *Analyzer) Bounds(tasks []Task) ([]Bound, error) {
	out := make([]Bound, 0, len(tasks))
	for _, t := range tasks {
		b, err := a.Bound(t)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Validation records one contention scenario checked against a bound.
type Validation struct {
	// Scenario names the contender mix.
	Scenario string
	// Observed is the task's measured execution time under contention.
	Observed uint64
	// Bound is the ETB being validated.
	Bound uint64
	// Holds is Observed ≤ Bound.
	Holds bool
	// Headroom is Bound/Observed - 1 (how much margin remains).
	Headroom float64
}

// Validate measures the task against the given contenders and checks the
// bound.
func (a *Analyzer) Validate(t Task, b Bound, scenario string, contenders []*isa.Program) (Validation, error) {
	m, err := sim.Run(a.cfg, sim.Workload{Scua: t.Prog, Contenders: contenders}, a.opts)
	if err != nil {
		return Validation{}, fmt.Errorf("etb: validating %q vs %s: %w", t.Name, scenario, err)
	}
	v := Validation{
		Scenario: scenario,
		Observed: m.Cycles,
		Bound:    b.ETB,
		Holds:    m.Cycles <= b.ETB,
	}
	if m.Cycles > 0 {
		v.Headroom = float64(b.ETB)/float64(m.Cycles) - 1
	}
	return v, nil
}

// ValidateAgainstRSK runs the adversarial check: the task against Nc-1
// bus-hammering load rsk.
func (a *Analyzer) ValidateAgainstRSK(t Task, b Bound) (Validation, error) {
	builder := kernel.NewBuilder(a.cfg.DL1, a.cfg.IL1, a.cfg.L2)
	var cont []*isa.Program
	for c := 1; c < a.cfg.Cores; c++ {
		p, err := builder.RSK(c, isa.OpLoad)
		if err != nil {
			return Validation{}, err
		}
		cont = append(cont, p)
	}
	return a.Validate(t, b, fmt.Sprintf("%dxrsk(load)", a.cfg.Cores-1), cont)
}

// ValidateAgainstWorkloads checks the bound against count random task-set
// scenarios drawn from the EEMBC-like profiles.
func (a *Analyzer) ValidateAgainstWorkloads(t Task, b Bound, count int, seed uint64) ([]Validation, error) {
	out := make([]Validation, 0, count)
	for _, ts := range workload.RandomTaskSets(count, a.cfg.Cores, seed) {
		progs, err := ts.Build()
		if err != nil {
			return nil, err
		}
		v, err := a.Validate(t, b, strings.Join(ts.Names[1:], "+"), progs[1:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Report summarizes bounds and validations for human consumption.
type Report struct {
	Platform    string
	UBDm        int
	Bounds      []Bound
	Validations map[string][]Validation
}

// NewReport assembles a report.
func NewReport(cfg sim.Config, ubdm int) *Report {
	return &Report{
		Platform:    cfg.Name,
		UBDm:        ubdm,
		Validations: make(map[string][]Validation),
	}
}

// AllHold reports whether every recorded validation respected its bound.
func (r *Report) AllHold() bool {
	for _, vs := range r.Validations {
		for _, v := range vs {
			if !v.Holds {
				return false
			}
		}
	}
	return true
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform %s, ubdm = %d cycles\n\n", r.Platform, r.UBDm)
	fmt.Fprintf(&b, "%-12s %12s %10s %12s %8s\n", "task", "isolation", "requests", "ETB", "pad%")
	for _, bd := range r.Bounds {
		fmt.Fprintf(&b, "%-12s %12d %10d %12d %7.1f%%\n",
			bd.Task, bd.Isolation, bd.Requests, bd.ETB, bd.PadShare()*100)
	}
	names := make([]string, 0, len(r.Validations))
	for n := range r.Validations {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "\nvalidations for %s:\n", n)
		for _, v := range r.Validations[n] {
			status := "HOLDS"
			if !v.Holds {
				status = "VIOLATED"
			}
			fmt.Fprintf(&b, "  %-40s observed %10d  bound %10d  %-8s headroom %5.1f%%\n",
				v.Scenario, v.Observed, v.Bound, status, v.Headroom*100)
		}
	}
	return b.String()
}
