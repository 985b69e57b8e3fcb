package core_test

import (
	"strings"
	"testing"

	"rrbus/internal/analytic"
	"rrbus/internal/core"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// obs is one isolation-paired measurement: the numbers a recorded row
// holds for rsk-nop(k) against Nc-1 rsk.
type obs struct {
	cycles, isolation, requests uint64
	util                        float64
}

// fakePlatform synthesizes observations from the analytic model: a
// platform with the given ubd, base injection time delta0 and per-nop
// cost, whose per-request slowdown at k is exactly
// analytic.Gamma(delta0+round(k·deltaNop), ubd). It lets the detection be
// tested exhaustively without simulation cost.
type fakePlatform struct {
	ubd        int
	delta0     int
	deltaNop   float64
	util       float64
	requests   uint64
	baseCycles uint64
}

func newFake(ubd, delta0 int) *fakePlatform {
	return &fakePlatform{
		ubd: ubd, delta0: delta0, deltaNop: 1,
		util: 1.0, requests: 500, baseCycles: 100000,
	}
}

func (f *fakePlatform) run(k int) obs {
	delta := f.delta0 + int(float64(k)*f.deltaNop+0.5)
	gamma := analytic.Gamma(delta, f.ubd)
	isol := f.baseCycles + uint64(k)*100
	return obs{cycles: isol + f.requests*uint64(gamma), isolation: isol, requests: f.requests, util: f.util}
}

// seriesOf reduces observations to the per-request slowdown series and
// the lowest contended utilization, as report.DerivationFrom does with
// recorded rows.
func seriesOf(o []obs) ([]float64, float64) {
	d := make([]float64, len(o))
	minUtil := 1.0
	for i, x := range o {
		d[i] = float64(x.cycles) - float64(x.isolation)
		if x.requests > 0 {
			d[i] /= float64(x.requests)
		}
		minUtil = min(minUtil, x.util)
	}
	return d, minUtil
}

// derive detects over a sweep that grows the way the facade's
// derivation extends it: measure k = KMin..kmax, detect, and double kmax
// (up to KLimit) while the series covers fewer than two periods. A
// non-nil noise jitters δnop first, then every measurement in order.
func derive(measure func(k int) obs, deltaNop float64, noise *noisyRunner, opt core.Options) (*core.Result, error) {
	opt = opt.WithDefaults()
	if noise != nil {
		deltaNop = noise.deltaNop(deltaNop)
	}
	var o []obs
	for kmax := opt.KMax; ; kmax = min(2*kmax, opt.KLimit) {
		for k := opt.KMin + len(o); k <= kmax; k++ {
			x := measure(k)
			if noise != nil {
				x = noise.jitter(x)
			}
			o = append(o, x)
		}
		d, minUtil := seriesOf(o)
		res, err := core.DeriveFromSeries(d, deltaNop, minUtil, opt)
		if res == nil || res.EnoughPeriods() || kmax >= opt.KLimit {
			return res, err
		}
	}
}

func deriveFake(f *fakePlatform, opt core.Options) (*core.Result, error) {
	return derive(f.run, f.deltaNop, nil, opt)
}

func TestDeriveRecoversUBD(t *testing.T) {
	for _, tc := range []struct{ ubd, delta0 int }{
		{27, 1}, {27, 4}, {6, 1}, {9, 2}, {45, 3}, {14, 7},
	} {
		res, err := deriveFake(newFake(tc.ubd, tc.delta0), core.Options{})
		if err != nil {
			t.Fatalf("ubd=%d δ0=%d: %v", tc.ubd, tc.delta0, err)
		}
		if res.UBDm != tc.ubd {
			t.Errorf("ubd=%d δ0=%d: derived %d", tc.ubd, tc.delta0, res.UBDm)
		}
		if !res.Confidence.UtilizationOK {
			t.Errorf("ubd=%d: utilization check failed unexpectedly", tc.ubd)
		}
		if res.Confidence.Score() != 1.0 {
			t.Errorf("ubd=%d: confidence %.2f, notes %v", tc.ubd, res.Confidence.Score(), res.Confidence.Notes)
		}
	}
}

func TestDeriveAutoExtends(t *testing.T) {
	// ubd = 45 from an initial KMax of 20: every sweep shorter than two
	// full periods must ask for more, and the extended one must recover
	// the bound.
	f := newFake(45, 1)
	for _, n := range []int{20, 40, 80} {
		o := make([]obs, n)
		for k := 1; k <= n; k++ {
			o[k-1] = f.run(k)
		}
		d, minUtil := seriesOf(o)
		if res, _ := core.DeriveFromSeries(d, 1, minUtil, core.Options{}); res.EnoughPeriods() {
			t.Errorf("%d points of ubd 45 claim two full periods (period %d)", n, res.PeriodK)
		}
	}
	res, err := deriveFake(f, core.Options{KMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 45 || !res.EnoughPeriods() {
		t.Errorf("derived %d, enough periods %v", res.UBDm, res.EnoughPeriods())
	}
	if len(res.Slowdowns) < 2*45 {
		t.Errorf("sweep too short for two periods: %d", len(res.Slowdowns))
	}
}

func TestDeriveWithoutAutoExtendFailsOnShortSweep(t *testing.T) {
	f := newFake(45, 1)
	_, err := deriveFake(f, core.Options{KMax: 20, KLimit: 20})
	if err == nil {
		t.Error("short sweep without auto-extend must fail")
	}
}

func TestDeriveRefusesSingleCore(t *testing.T) {
	// Contention needs a contender: the derivation block of a single-core
	// platform is refused before anything runs.
	_, err := scenario.DerivePlan(scenario.PlatformSpec{Cores: 1}, "load", 1, 40)
	if err == nil || !strings.Contains(err.Error(), "at least 2 cores") {
		t.Errorf("single-core platform must be refused, got %v", err)
	}
}

func TestDeriveReportsLowUtilization(t *testing.T) {
	f := newFake(27, 1)
	f.util = 0.7
	res, err := deriveFake(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Confidence.UtilizationOK {
		t.Error("70% utilization must fail the confidence check")
	}
	if res.Confidence.Score() >= 1 {
		t.Error("score must drop")
	}
	found := false
	for _, n := range res.Confidence.Notes {
		if strings.Contains(n, "utilization 70% below 90%") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing utilization note: %v", res.Confidence.Notes)
	}
}

func TestDeriveDeltaNopError(t *testing.T) {
	// A δnop calibration that measured nothing usable must be refused,
	// not divided by.
	d, _ := seriesOf([]obs{newFake(27, 1).run(1), newFake(27, 1).run(2)})
	for _, dn := range []float64{0, -1} {
		if _, err := core.DeriveFromSeries(d, dn, 1, core.Options{}); err == nil || !strings.Contains(err.Error(), "δnop") {
			t.Errorf("δnop %v: got %v", dn, err)
		}
	}
	if _, err := core.DeriveFromSeries(nil, 1, 1, core.Options{}); err == nil {
		t.Error("empty series must be refused")
	}
}

func TestDeriveFlatSlowdownFails(t *testing.T) {
	// A time-composable platform (e.g. TDMA): contended == isolation.
	f := newFake(27, 1)
	f.requests = 0 // no contention term at all
	res, err := deriveFake(f, core.Options{KLimit: 80})
	if err == nil || !strings.Contains(err.Error(), "no saw-tooth period found in k=1..80") {
		t.Errorf("flat slowdown must be refused at the KLimit, got %v", err)
	}
	if res == nil || len(res.Slowdowns) != 80 {
		t.Error("the refused result must keep the capped series")
	}
}

func TestDeriveDeltaNop2Aliasing(t *testing.T) {
	// δnop = 2, ubd = 27: period-based reading gives 54; the model fit
	// must override to 27 and the notes must say why.
	f := newFake(27, 1)
	f.deltaNop = 2
	res, err := deriveFake(f, core.Options{KLimit: 160})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("aliased derivation = %d, want 27", res.UBDm)
	}
	if res.Methods[core.MethodModelFit] != 27 {
		t.Errorf("model fit = %d", res.Methods[core.MethodModelFit])
	}
	// The period-based exact method reads 54 here.
	if res.Methods[core.MethodExact] != 54 {
		t.Errorf("exact period reading = %d, want the aliased 54", res.Methods[core.MethodExact])
	}
	noted := false
	for _, n := range res.Confidence.Notes {
		if strings.Contains(n, "alias") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("aliasing must be noted: %v", res.Confidence.Notes)
	}
}

func TestDeriveDeltaNop3Divides(t *testing.T) {
	// δnop = 3 divides 27: the k-period is 9 and 9×3 = 27 reads
	// correctly even without the model fit.
	f := newFake(27, 1)
	f.deltaNop = 3
	res, err := deriveFake(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("derived %d, want 27", res.UBDm)
	}
}

func TestResultPadAndETB(t *testing.T) {
	res := &core.Result{UBDm: 27}
	if got := res.Pad(100); got != 2700 {
		t.Errorf("Pad = %d", got)
	}
	if got := res.ETB(5000, 100); got != 7700 {
		t.Errorf("ETB = %d", got)
	}
	empty := &core.Result{}
	if empty.Pad(100) != 0 || empty.ETB(5000, 100) != 5000 {
		t.Error("zero UBDm must pad nothing")
	}
}

func TestConfidenceScore(t *testing.T) {
	full := core.Confidence{UtilizationOK: true, MethodsAgree: true, PeriodsObserved: 3}
	if full.Score() != 1 {
		t.Errorf("full score = %v", full.Score())
	}
	none := core.Confidence{}
	if none.Score() != 0 {
		t.Errorf("empty score = %v", none.Score())
	}
	partial := core.Confidence{UtilizationOK: true, MethodsAgree: false, PeriodsObserved: 2}
	if s := partial.Score(); s <= 0.5 || s >= 1 {
		t.Errorf("partial score = %v", s)
	}
}

// --- End-to-end on the real simulator (the paper's §5.3 headline) ---

// recordDerivation records the derivation block for k = 1..80 on platform
// — two full periods of every ubd these tests derive — as the rows a
// Session would store.
func recordDerivation(t *testing.T, platform scenario.PlatformSpec) ([]scenario.Job, []scenario.Result) {
	t.Helper()
	spec, err := scenario.DerivePlan(platform, "load", 1, 80)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&store.Session{}).RunAll(plan)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Jobs, results
}

// deriveOnSimulator re-derives the bound from recordDerivation's rows.
func deriveOnSimulator(t *testing.T, platform scenario.PlatformSpec) *core.Result {
	t.Helper()
	d, err := report.DerivationFrom(recordDerivation(t, platform))
	if err != nil {
		t.Fatal(err)
	}
	if d.Err != nil {
		t.Fatalf("%+v: %v", platform, d.Err)
	}
	return d.Res
}

func TestDeriveOnSimulatorRef(t *testing.T) {
	res := deriveOnSimulator(t, scenario.PlatformSpec{Arch: "ref"})
	if res.UBDm != 27 {
		t.Errorf("ref: derived %d, actual 27", res.UBDm)
	}
	if res.PeriodK != 27 {
		t.Errorf("ref: period %d", res.PeriodK)
	}
	// The calibration divides a long nop run by its nop count, so the
	// loop overhead is diluted: δnop ≈ 1.
	if res.DeltaNop < 0.99 || res.DeltaNop > 1.01 {
		t.Errorf("ref: δnop = %.4f", res.DeltaNop)
	}
	if !res.Confidence.UtilizationOK || !res.Confidence.MethodsAgree {
		t.Errorf("ref: confidence %+v", res.Confidence)
	}
}

func TestDeriveOnSimulatorVar(t *testing.T) {
	if res := deriveOnSimulator(t, scenario.PlatformSpec{Arch: "var"}); res.UBDm != 27 {
		t.Errorf("var: derived %d, actual 27 (injection time must not matter)", res.UBDm)
	}
}

func TestDeriveOnScaledGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A different platform entirely: 6 cores, lbus = 5 → ubd = 25.
	if res := deriveOnSimulator(t, scenario.PlatformSpec{Arch: "ref", Cores: 6, Transfer: 2, L2Hit: 3}); res.UBDm != 25 {
		t.Errorf("derived %d, actual 25", res.UBDm)
	}
}

func TestDeriveUnderWeightedRR(t *testing.T) {
	// MBBA-style weighted round-robin: extra consecutive slots are
	// useless to single-outstanding in-order cores (their next request
	// is never ready at the completion cycle, so the slot falls
	// through). Saturated WRR therefore degenerates to plain RR and the
	// methodology reads (Nc-1)*lbus regardless of the weights — which
	// is the correct per-request bound for these cores.
	for _, weights := range [][]int{{2, 1, 1, 1}, {1, 2, 1, 1}, {1, 3, 3, 3}} {
		res := deriveOnSimulator(t, scenario.PlatformSpec{Arch: "ref", Arbiter: "wrr", WRRWeights: weights})
		if res.UBDm != 27 {
			t.Errorf("weights %v: derived %d, want 27", weights, res.UBDm)
		}
	}
}
