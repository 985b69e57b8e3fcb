package report

import (
	"fmt"
	"strings"

	"rrbus/internal/core"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
	"rrbus/internal/workload"
)

// Derivation is the detection half of the methodology run over one
// recorded derivation block: the δnop calibration row plus the
// isolation-paired k sweep.
type Derivation struct {
	// Cfg is the block's platform, rebuilt from its declarative spec.
	Cfg sim.Config
	// Type is the sweep's bus access type; KMin its first k.
	Type isa.Op
	KMin int
	// DeltaNop is the per-nop injection increment recovered from the
	// calibration row.
	DeltaNop float64
	// Res is the core.DeriveFromSeries outcome (may be partial when Err
	// is set); Err is the detection failure, if any.
	Res *core.Result
	Err error
}

// DerivationFrom runs the period detection over a recorded derivation
// block: jobs[0] must be the δnop calibration ("<prefix>/dnop", scua
// "nop"), jobs[1:] the isolation-paired rsk-nop sweep in ascending k.
// Everything it needs beyond the recorded numbers — the nop count of the
// calibration kernel, the platform's Eq. 1 ground truth — is rebuilt
// from the declarative job specs; no simulation runs.
func DerivationFrom(jobs []scenario.Job, results []scenario.Result) (*Derivation, error) {
	return DerivationAt(jobs, results, 0)
}

// DerivationAt is DerivationFrom at an explicit Eq. 3 match tolerance
// (core.Options.Tolerance; 0 selects the default).
func DerivationAt(jobs []scenario.Job, results []scenario.Result, tolerance float64) (*Derivation, error) {
	if len(jobs) != len(results) {
		return nil, fmt.Errorf("report: %d results for %d jobs", len(results), len(jobs))
	}
	if len(results) < 2 {
		return nil, fmt.Errorf("report: need the δnop job plus at least one k job, have %d results", len(results))
	}
	if !strings.HasPrefix(jobs[0].Scenario.Workload.Scua, "nop") {
		return nil, fmt.Errorf("report: job %q is not the δnop calibration (scua %q)", jobs[0].ID, jobs[0].Scenario.Workload.Scua)
	}
	cfg, err := buildCfg(jobs[0])
	if err != nil {
		return nil, err
	}
	deltaNop, err := deltaNopOf(jobs[0], results[0])
	if err != nil {
		return nil, err
	}

	typ, kmin, err := parseRSKNop(jobs[1].Scenario.Workload.Scua)
	if err != nil {
		return nil, err
	}
	t := isa.OpLoad
	if typ == "store" {
		t = isa.OpStore
	}

	slowdowns := make([]float64, 0, len(results)-1)
	minUtil := 1.0
	for _, r := range results[1:] {
		d := float64(r.Slowdown)
		if r.Requests > 0 {
			d /= float64(r.Requests)
		}
		slowdowns = append(slowdowns, d)
		if r.Utilization < minUtil {
			minUtil = r.Utilization
		}
	}

	der := &Derivation{Cfg: cfg, Type: t, KMin: kmin, DeltaNop: deltaNop}
	der.Res, der.Err = core.DeriveFromSeries(slowdowns, deltaNop, minUtil, core.Options{Type: t, KMin: kmin, Tolerance: tolerance})
	return der, nil
}

// deltaNopOf recovers δnop from the calibration job's measurement: the
// isolated execution time divided by the number of nops executed. The
// nop count is recomputed from the job's declarative spec — the same
// deterministic program build the measuring machine used.
func deltaNopOf(job scenario.Job, res scenario.Result) (float64, error) {
	cfg, err := buildCfg(job)
	if err != nil {
		return 0, err
	}
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	if job.Scenario.Workload.Unroll > 0 {
		b.Unroll = job.Scenario.Workload.Unroll
	}
	p, err := workload.BuildSpec(b, job.Scenario.Workload.Scua, job.Scenario.Workload.ScuaCore, 1)
	if err != nil {
		return 0, err
	}
	nops := kernel.NopCount(p) * res.Iters
	if nops == 0 {
		return 0, fmt.Errorf("report: δnop job %q executed no nops", job.ID)
	}
	cycles := res.IsolationCycles
	if cycles == 0 {
		cycles = res.Cycles
	}
	return float64(cycles) / float64(nops), nil
}
