package core

import (
	"fmt"
	"math"
	"sort"

	"rrbus/internal/isa"
)

// Options configures a derivation.
type Options struct {
	// Type selects the bus-accessing instruction of the rsk-nop and rsk
	// kernels (isa.OpLoad by default; isa.OpStore exercises the store
	// buffer path of Fig. 7(b)).
	Type isa.Op
	// KMin..KMax is the first pass's nop-sweep range (defaults 1..40).
	KMin, KMax int
	// KLimit caps the sweep (default 320): while a pass sees fewer than
	// two full periods, the next pass doubles KMax, up to KLimit.
	KLimit int
	// Tolerance is the Eq. 3 match tolerance as a fraction of the series
	// amplitude (default 0.02; the simulator is exact, real hardware
	// jitters).
	Tolerance float64
}

const (
	// minPeriods is the number of full saw-tooth periods a sweep must
	// cover before the estimate is trusted (Eq. 3 needs repeats).
	minPeriods = 2
	// utilizationMin is the confidence threshold on measured bus
	// utilization during contended runs: Nc-1 rsk must saturate the bus
	// "other than handshaking time".
	utilizationMin = 0.9
)

// maxUBD bounds the model-fit scan over an n-point series: 4n, at least
// 16. ModelFitUBD further caps it at n·δnop/2, the largest ubd of which
// an n-point sweep covers two periods.
func maxUBD(n int) int { return max(16, 4*n) }

// WithDefaults returns o with every unset field at its default: load
// kernels, k = 1..40 (KMax <= KMin selects KMin+39), KLimit 320 and
// tolerance 0.02.
func (o Options) WithDefaults() Options {
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
	if o.Tolerance == 0 {
		o.Tolerance = 0.02
	}
	return o
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

// DeriveFromSeries runs the detection half of the methodology on a
// measured per-request slowdown series: Slowdowns[i] belongs to
// k = opt.KMin + i, deltaNop is the measured per-nop injection increment,
// and minUtil is the lowest bus utilization observed across the contended
// runs. The series always comes from recorded rows (report.DerivationFrom
// reassembles it from a derive block), so a live, store-served, sharded
// or replayed sweep derives the same bound: every measurement is an
// independent simulation keyed only by k. A result that does not yet
// cover two full periods (EnoughPeriods false) asks its caller for a
// longer sweep.
func DeriveFromSeries(slowdowns []float64, deltaNop, minUtil float64, opt Options) (*Result, error) {
	opt = opt.WithDefaults()
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
	res.finish(minUtil)
	if res.UBDm == 0 {
		return res, fmt.Errorf("core: no saw-tooth period found in k=%d..%d (flat or aperiodic slowdown — is the arbiter round-robin?)",
			opt.KMin, opt.KMin+len(res.Slowdowns)-1)
	}
	return res, nil
}

// detect runs all detection methods over the series.
func (res *Result) detect(opt Options, deltaNop float64) {
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

	fitUBD, fitRes := ModelFitUBD(d, res.KMin, deltaNop, maxUBD(len(d)))
	if fitUBD > 0 && fitRes < 0.2 {
		res.Methods[MethodModelFit] = fitUBD
	}

	res.PeriodK = exactK
}

// EnoughPeriods reports whether the series covers two full periods of the
// exact (Eq. 3) detector's period: the point at which the estimate is
// trusted and an auto-extending sweep stops growing.
func (res *Result) EnoughPeriods() bool {
	return res.PeriodK > 0 && len(res.Slowdowns) >= minPeriods*res.PeriodK+1
}

// finish selects the final estimate and fills the confidence report.
func (res *Result) finish(minUtil float64) {
	conf := Confidence{
		MinUtilization: minUtil,
		UtilizationOK:  minUtil >= utilizationMin,
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
	if conf.PeriodsObserved < minPeriods {
		conf.Notes = append(conf.Notes, fmt.Sprintf("only %.1f periods observed (want ≥ %d)", conf.PeriodsObserved, minPeriods))
	}
	if !conf.UtilizationOK {
		conf.Notes = append(conf.Notes,
			fmt.Sprintf("bus utilization %.0f%% below %.0f%%: contenders may not saturate the bus",
				conf.MinUtilization*100, utilizationMin*100))
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
