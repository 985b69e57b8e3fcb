package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"rrbus/internal/exp"
	"rrbus/internal/isa"
)

// Options configures a derivation.
type Options struct {
	// Type selects the bus-accessing instruction of the rsk-nop and rsk
	// kernels (isa.OpLoad by default; isa.OpStore exercises the store
	// buffer path of Fig. 7(b)).
	Type isa.Op
	// KMin..KMax is the initial nop-sweep range (defaults 1..40). With
	// AutoExtend the range grows until a period is confirmed.
	KMin, KMax int
	// AutoExtend doubles KMax (up to KLimit) while no period is found or
	// fewer than MinPeriods full periods are observed. Default true via
	// Derive; set KLimit to bound the search.
	AutoExtend bool
	// KLimit caps the sweep under AutoExtend (default 320).
	KLimit int
	// MinPeriods is the number of full saw-tooth periods required before
	// the estimate is trusted (default 2, per Eq. 3's need for repeats).
	MinPeriods int
	// Tolerance is the Eq. 3 match tolerance as a fraction of the series
	// amplitude (default 0.02; the simulator is exact, real hardware
	// jitters).
	Tolerance float64
	// UtilizationMin is the confidence threshold on measured bus
	// utilization during contended runs (default 0.9): Nc-1 rsk must
	// saturate the bus "other than handshaking time".
	UtilizationMin float64
	// MaxUBD bounds the model-fit scan. The default is 4 × the series
	// length, at least 16; ModelFitUBD further caps it at n·δnop/2, the
	// largest ubd of which an n-point sweep covers two periods.
	MaxUBD int
}

func (o *Options) fill() {
	if o.Type != isa.OpStore {
		o.Type = isa.OpLoad
	}
	if o.KMin <= 0 {
		o.KMin = 1
	}
	if o.KMax <= o.KMin {
		o.KMax = o.KMin + 39
	}
	if o.KLimit == 0 {
		o.KLimit = 320
	}
	if o.MinPeriods == 0 {
		o.MinPeriods = 2
	}
	if o.Tolerance == 0 {
		o.Tolerance = 0.02
	}
	if o.UtilizationMin == 0 {
		o.UtilizationMin = 0.9
	}
}

// Confidence summarizes how trustworthy a derived bound is, following the
// paper's §4.3 criteria plus cross-method agreement.
type Confidence struct {
	// UtilizationOK reports whether every contended run saturated the
	// bus beyond the configured threshold (PMC check).
	UtilizationOK bool
	// MinUtilization is the lowest utilization observed across the sweep.
	MinUtilization float64
	// PeriodsObserved is the number of full periods the sweep covered.
	PeriodsObserved float64
	// MethodsAgree reports whether all applicable detection methods
	// produced the same ubd.
	MethodsAgree bool
	// Notes carries human-readable caveats.
	Notes []string
}

// Score condenses the confidence into [0, 1].
func (c Confidence) Score() float64 {
	s := 1.0
	if !c.UtilizationOK {
		s -= 0.4
	}
	if !c.MethodsAgree {
		s -= 0.3
	}
	if c.PeriodsObserved < 2 {
		s -= 0.3
	}
	if s < 0 {
		s = 0
	}
	return s
}

// Result is the outcome of a derivation.
type Result struct {
	// UBDm is the derived upper-bound delay in cycles — the paper's ubdm,
	// the quantity fed to the timing-analysis tool.
	UBDm int
	// PeriodK is the detected saw-tooth period in nop steps.
	PeriodK int
	// DeltaNop is the measured per-nop injection increment in cycles.
	DeltaNop float64
	// KMin is the first k of the sweep; Slowdowns[i] is the
	// per-request slowdown at k = KMin+i:
	// (ExecTime_contended - ExecTime_isolation) / nr, in cycles.
	//
	// Normalizing by the PMC request count nr generalizes the paper's
	// Eq. 3 (which compares raw execution-time increases): rsk-nop
	// bodies shrink their unroll factor at large k to stay inside IL1,
	// so the number of requests per run is not constant across the
	// sweep — but the per-request contention γ(δ) is, and that is what
	// repeats with period ubd.
	KMin      int
	Slowdowns []float64
	// Methods records each detection method's ubd estimate in cycles
	// (0 = method not applicable / failed).
	Methods map[PeriodMethod]int
	// Confidence is the §4.3 confidence report.
	Confidence Confidence
}

// runnerWorkers returns the worker count Derive may use for r's
// measurement sweep: the experiment engine's default when r declares
// itself safe for concurrent measurements (ConcurrentSafe), and 1 —
// the historical strictly-serial behavior — otherwise. A NoisyRunner's
// jitter stream and a hardware-backed runner's board session are
// order-dependent, so they must stay serial.
func runnerWorkers(r Runner) int {
	if c, ok := r.(interface{ ConcurrentSafe() bool }); ok && c.ConcurrentSafe() {
		return exp.Workers()
	}
	return 1
}

// Derive runs the full methodology of §4.2 on the platform behind r:
// measure δnop, sweep rsk-nop(t, k) against Nc-1 rsk(t), difference against
// isolation, detect the saw-tooth period, and map it to cycles.
func Derive(r Runner, opt Options) (*Result, error) {
	opt.fill()
	if r.Cores() < 2 {
		return nil, fmt.Errorf("core: contention derivation needs at least 2 cores, platform has %d", r.Cores())
	}

	deltaNop, err := r.MeasureDeltaNop()
	if err != nil {
		return nil, fmt.Errorf("core: measuring δnop: %w", err)
	}
	if deltaNop <= 0 {
		return nil, fmt.Errorf("core: non-positive δnop %.3f", deltaNop)
	}

	res := &Result{
		DeltaNop: deltaNop,
		KMin:     opt.KMin,
		Methods:  make(map[PeriodMethod]int),
	}
	minUtil := math.Inf(1)

	kmax := opt.KMax
	for {
		// Extend the slowdown series up to kmax. Each k is a pair of
		// independent contended/isolation runs; the batch streams through
		// the experiment engine and folds straight into the series — in k
		// order as points complete, so the series (and thus the derived
		// period) is identical to a serial sweep.
		type point struct {
			slowdown    float64
			utilization float64
		}
		kfirst := opt.KMin + len(res.Slowdowns)
		err := exp.StreamN(context.Background(), runnerWorkers(r), kmax-kfirst+1, func(i int) (point, error) {
			k := kfirst + i
			cont, err := r.RunContended(opt.Type, k)
			if err != nil {
				return point{}, fmt.Errorf("core: contended run k=%d: %w", k, err)
			}
			isol, err := r.RunIsolation(opt.Type, k)
			if err != nil {
				return point{}, fmt.Errorf("core: isolation run k=%d: %w", k, err)
			}
			d := float64(cont.Cycles) - float64(isol.Cycles)
			if cont.Requests > 0 {
				d /= float64(cont.Requests)
			}
			return point{slowdown: d, utilization: cont.Utilization}, nil
		}, exp.SinkFunc[point](func(_ int, p point) error {
			res.Slowdowns = append(res.Slowdowns, p.slowdown)
			if p.utilization < minUtil {
				minUtil = p.utilization
			}
			return nil
		}))
		if err != nil {
			return nil, err
		}

		if done := res.detect(opt, deltaNop); done {
			break
		}
		if !opt.AutoExtend || kmax >= opt.KLimit {
			break
		}
		kmax *= 2
		if kmax > opt.KLimit {
			kmax = opt.KLimit
		}
	}

	res.finish(opt, minUtil)
	if res.UBDm == 0 {
		return res, fmt.Errorf("core: no saw-tooth period found in k=%d..%d (flat or aperiodic slowdown — is the arbiter round-robin?)",
			opt.KMin, opt.KMin+len(res.Slowdowns)-1)
	}
	return res, nil
}

// DeriveFromSeries runs the detection half of the methodology on an
// already-measured per-request slowdown series: Slowdowns[i] belongs to
// k = opt.KMin + i, deltaNop is the measured per-nop injection increment,
// and minUtil is the lowest bus utilization observed across the contended
// runs. This is how sharded sweeps work: each shard measures its slice of
// the k range (streamed to JSONL), the merged series is reassembled, and
// the period detection — which needs the whole series — runs here at
// merge time. Deriving from a serially-measured series and from merged
// shard measurements yields identical results because every measurement
// is an independent simulation keyed only by k.
func DeriveFromSeries(slowdowns []float64, deltaNop, minUtil float64, opt Options) (*Result, error) {
	opt.fill()
	if len(slowdowns) == 0 {
		return nil, fmt.Errorf("core: empty slowdown series")
	}
	if deltaNop <= 0 {
		return nil, fmt.Errorf("core: non-positive δnop %.3f", deltaNop)
	}
	res := &Result{
		DeltaNop:  deltaNop,
		KMin:      opt.KMin,
		Slowdowns: slowdowns,
		Methods:   make(map[PeriodMethod]int),
	}
	res.detect(opt, deltaNop)
	res.finish(opt, minUtil)
	if res.UBDm == 0 {
		return res, fmt.Errorf("core: no saw-tooth period found in k=%d..%d (flat or aperiodic slowdown — is the arbiter round-robin?)",
			opt.KMin, opt.KMin+len(res.Slowdowns)-1)
	}
	return res, nil
}

// detect runs all detection methods over the current series and reports
// whether a trustworthy estimate exists (enough periods observed).
func (res *Result) detect(opt Options, deltaNop float64) bool {
	d := res.Slowdowns
	res.Methods[MethodExact] = 0
	res.Methods[MethodAutocorr] = 0
	res.Methods[MethodPeaks] = 0
	res.Methods[MethodModelFit] = 0

	toCycles := func(periodK int) int {
		if periodK <= 0 {
			return 0
		}
		return int(math.Round(float64(periodK) * deltaNop))
	}

	exactK := ExactPeriod(d, opt.Tolerance)
	res.Methods[MethodExact] = toCycles(exactK)
	res.Methods[MethodAutocorr] = toCycles(AutocorrPeriod(d, 0.8))
	res.Methods[MethodPeaks] = toCycles(PeakPeriod(d))

	maxUBD := opt.MaxUBD
	if maxUBD == 0 {
		maxUBD = 4 * len(d)
		if maxUBD < 16 {
			maxUBD = 16
		}
	}
	fitUBD, fitRes := ModelFitUBD(d, res.KMin, deltaNop, maxUBD)
	if fitUBD > 0 && fitRes < 0.2 {
		res.Methods[MethodModelFit] = fitUBD
	}

	res.PeriodK = exactK
	if exactK == 0 {
		return false
	}
	// Trustworthy once the sweep covers MinPeriods full periods.
	return len(d) >= opt.MinPeriods*exactK+1
}

// finish selects the final estimate and fills the confidence report.
func (res *Result) finish(opt Options, minUtil float64) {
	conf := Confidence{
		MinUtilization: minUtil,
		UtilizationOK:  minUtil >= opt.UtilizationMin,
	}
	if math.IsInf(minUtil, 1) {
		conf.MinUtilization = 0
		conf.UtilizationOK = false
	}

	// Gather non-zero estimates.
	var vals []int
	for _, m := range []PeriodMethod{MethodExact, MethodAutocorr, MethodPeaks, MethodModelFit} {
		if v := res.Methods[m]; v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		conf.Notes = append(conf.Notes, "no detection method found a period")
		res.Confidence = conf
		return
	}
	sort.Ints(vals)
	conf.MethodsAgree = vals[0] == vals[len(vals)-1]

	// Period-based methods read P*δnop; with δnop ≈ 1 that is ubd
	// directly. When δnop deviates from 1 cycle the model fit is the
	// authoritative estimate (it matches sampled values, not just the
	// repeat distance, so it is immune to aliasing).
	ubd := 0
	if math.Abs(res.DeltaNop-1) < 0.1 {
		if v := res.Methods[MethodExact]; v > 0 {
			ubd = v
		} else {
			ubd = stMedian(vals)
		}
	} else if v := res.Methods[MethodModelFit]; v > 0 {
		ubd = v
		conf.Notes = append(conf.Notes, fmt.Sprintf("δnop=%.2f ≠ 1: using model fit to avoid sampling aliasing", res.DeltaNop))
	} else {
		ubd = stMedian(vals)
		conf.Notes = append(conf.Notes, "δnop ≠ 1 and model fit unavailable: estimate may alias")
	}
	res.UBDm = ubd

	if res.PeriodK > 0 {
		conf.PeriodsObserved = float64(len(res.Slowdowns)) / float64(res.PeriodK)
	}
	if conf.PeriodsObserved < float64(opt.MinPeriods) {
		conf.Notes = append(conf.Notes, fmt.Sprintf("only %.1f periods observed (want ≥ %d)", conf.PeriodsObserved, opt.MinPeriods))
	}
	if !conf.UtilizationOK {
		conf.Notes = append(conf.Notes,
			fmt.Sprintf("bus utilization %.0f%% below %.0f%%: contenders may not saturate the bus",
				conf.MinUtilization*100, opt.UtilizationMin*100))
	}
	if !conf.MethodsAgree {
		conf.Notes = append(conf.Notes, fmt.Sprintf("detection methods disagree: %v", res.Methods))
	}
	res.Confidence = conf
}

func stMedian(sorted []int) int {
	return sorted[(len(sorted)-1)/2]
}

// Pad returns the execution-time-bound padding for a scua that issues nr
// bus requests: pad = nr * ubdm (§4.3, "Using ubdm" for MBTA).
func (res *Result) Pad(nr uint64) uint64 {
	if res.UBDm <= 0 {
		return 0
	}
	return nr * uint64(res.UBDm)
}

// ETB returns the padded execution-time bound for a scua measured in
// isolation: etIsolation + nr*ubdm.
func (res *Result) ETB(etIsolation, nr uint64) uint64 {
	return etIsolation + res.Pad(nr)
}
