package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"rrbus/internal/analytic"
	"rrbus/internal/stats"
)

// sawtoothSeries builds a slowdown-like series proportional to
// γ(δ0 + k·δnop) for k = kmin.., with optional additive noise amplitude.
func sawtoothSeries(delta0, deltaNop, ubd, kmin, n int, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		g := analytic.Gamma(delta0+(kmin+i)*deltaNop, ubd)
		out[i] = 1000*float64(g) + noise*(rng.Float64()*2-1)
	}
	return out
}

func TestExactPeriodCleanSawtooth(t *testing.T) {
	for _, ubd := range []int{6, 9, 27, 35} {
		d := sawtoothSeries(1, 1, ubd, 1, 3*ubd, 0, 1)
		if got := ExactPeriod(d, 0.02); got != ubd {
			t.Errorf("ubd=%d: exact period = %d", ubd, got)
		}
	}
}

func TestExactPeriodWithNoise(t *testing.T) {
	// 2% amplitude tolerance absorbs small measurement jitter.
	d := sawtoothSeries(1, 1, 27, 1, 81, 200, 7) // noise ≈ 0.8% of amplitude
	if got := ExactPeriod(d, 0.02); got != 27 {
		t.Errorf("noisy exact period = %d", got)
	}
}

func TestExactPeriodRejectsDegenerate(t *testing.T) {
	if got := ExactPeriod([]float64{1, 2, 3}, 0.02); got != 0 {
		t.Errorf("short series period = %d", got)
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 42
	}
	if got := ExactPeriod(flat, 0.02); got != 0 {
		t.Errorf("constant series period = %d (flat slowdown has no saw-tooth)", got)
	}
	// Monotone series: no period fits.
	mono := make([]float64, 40)
	for i := range mono {
		mono[i] = float64(i * i)
	}
	if got := ExactPeriod(mono, 0.02); got != 0 {
		t.Errorf("monotone series period = %d", got)
	}
}

func TestAutocorrPeriod(t *testing.T) {
	d := sawtoothSeries(1, 1, 27, 1, 108, 0, 1)
	if got := AutocorrPeriod(d, 0.8); got != 27 {
		t.Errorf("autocorr period = %d", got)
	}
	if got := AutocorrPeriod(d[:5], 0.8); got != 0 {
		t.Errorf("short series = %d", got)
	}
	flat := make([]float64, 60)
	if got := AutocorrPeriod(flat, 0.8); got != 0 {
		t.Errorf("flat series = %d", got)
	}
}

func TestPeakPeriod(t *testing.T) {
	d := sawtoothSeries(1, 1, 27, 1, 108, 0, 1)
	if got := PeakPeriod(d); got != 27 {
		t.Errorf("peak period = %d", got)
	}
	if got := PeakPeriod([]float64{1, 2, 1}); got != 0 {
		t.Errorf("single peak = %d", got)
	}
}

func TestModelFitExact(t *testing.T) {
	for _, tc := range []struct {
		delta0, ubd int
	}{{1, 27}, {4, 27}, {2, 9}, {1, 35}} {
		d := sawtoothSeries(tc.delta0, 1, tc.ubd, 1, 3*tc.ubd, 0, 1)
		got, res := ModelFitUBD(d, 1, 1.0, 80)
		if got != tc.ubd {
			t.Errorf("δ0=%d ubd=%d: fit = %d (residual %.4f)", tc.delta0, tc.ubd, got, res)
		}
		if res > 1e-9 {
			t.Errorf("clean fit residual = %g", res)
		}
	}
}

func TestModelFitResolvesAliasing(t *testing.T) {
	// δnop = 2 with ubd = 27: the k-period is 27, so period×δnop reads
	// 54 — double. The model fit must still recover 27 because the
	// sampled VALUES only match ubd = 27.
	d := sawtoothSeries(1, 2, 27, 1, 54, 0, 1)
	if p := ExactPeriod(d, 0.02); p != 27 {
		t.Fatalf("precondition: sampled k-period = %d, want 27", p)
	}
	got, _ := ModelFitUBD(d, 1, 2.0, 80)
	if got != 27 {
		t.Errorf("aliased fit = %d, want 27", got)
	}
}

func TestModelFitDegenerate(t *testing.T) {
	if got, res := ModelFitUBD([]float64{1, 2}, 1, 1, 50); got != 0 || !math.IsInf(res, 1) {
		t.Error("short series must not fit")
	}
	flat := make([]float64, 40)
	if got, _ := ModelFitUBD(flat, 1, 1, 50); got != 0 {
		t.Error("flat series must not fit")
	}
}

// TestPropDetectorsAgreeOnCleanData: on noiseless synthetic saw-tooths with
// δnop = 1, all three period detectors and the model fit agree with the
// ground-truth ubd.
func TestPropDetectorsAgreeOnCleanData(t *testing.T) {
	f := func(ubdRaw, d0Raw uint8) bool {
		ubd := 4 + int(ubdRaw)%40
		delta0 := 1 + int(d0Raw)%ubd
		d := sawtoothSeries(delta0, 1, ubd, 1, 3*ubd, 0, int64(ubd)*31+int64(delta0))
		if ExactPeriod(d, 0.02) != ubd {
			return false
		}
		if AutocorrPeriod(d, 0.8) != ubd {
			return false
		}
		if PeakPeriod(d) != ubd {
			return false
		}
		fit, _ := ModelFitUBD(d, 1, 1, 3*ubd+16)
		return fit == ubd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropExactPeriodIsMinimal: ExactPeriod never returns a multiple of a
// smaller valid period.
func TestPropExactPeriodIsMinimal(t *testing.T) {
	f := func(ubdRaw uint8) bool {
		ubd := 3 + int(ubdRaw)%30
		d := sawtoothSeries(1, 1, ubd, 1, 4*ubd, 0, 9)
		p := ExactPeriod(d, 0.02)
		if p != ubd {
			return false
		}
		// No smaller shift may satisfy the tolerance.
		lo, hi := stats.MinMax(d)
		lim := 0.02 * (hi - lo)
		for q := 1; q < p; q++ {
			ok := true
			for i := 0; i+q < len(d); i++ {
				if math.Abs(d[i]-d[i+q]) > lim {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// modelFitReference is the original cubic ModelFitUBD, kept as the
// oracle the sweep is tested against: it recomputes and z-scores the
// prediction of every (ubd, δ0) pair.
func modelFitReference(d []float64, kmin int, deltaNop float64, maxUBD int) (ubd int, residual float64) {
	n := len(d)
	if n < 6 || maxUBD < 2 {
		return 0, math.Inf(1)
	}
	dn := int(math.Round(deltaNop))
	if dn < 1 {
		dn = 1
	}
	obs := zscore(d)
	if obs == nil {
		return 0, math.Inf(1)
	}
	// A candidate is only identifiable when the sweep spans at least two
	// of its periods in δ-space (n*dn cycles): otherwise a partial
	// descending ramp fits every larger ubd equally well (ill-posed).
	if cap := n * dn / 2; maxUBD > cap {
		maxUBD = cap
	}
	best, bestRes := 0, math.Inf(1)
	pred := make([]float64, n)
	for cand := 2; cand <= maxUBD; cand++ {
		for d0 := 0; d0 < cand; d0++ {
			for i := 0; i < n; i++ {
				pred[i] = float64(analytic.Gamma(d0+(kmin+i)*dn, cand))
			}
			zp := zscore(pred)
			if zp == nil {
				continue
			}
			var sse float64
			for i := range obs {
				diff := obs[i] - zp[i]
				sse += diff * diff
			}
			sse /= float64(n)
			if sse < bestRes {
				best, bestRes = cand, sse
			}
		}
	}
	return best, bestRes
}

// zscore returns the standardized series, or nil for constant input.
func zscore(d []float64) []float64 {
	m := stats.Mean(d)
	s := stats.Std(d)
	if s == 0 {
		return nil
	}
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = (x - m) / s
	}
	return out
}

// referenceResidualAt is modelFitReference's best residual for one
// candidate ubd, over every δ0.
func referenceResidualAt(d []float64, kmin int, deltaNop float64, cand int) float64 {
	dn := max(1, int(math.Round(deltaNop)))
	obs := zscore(d)
	best := math.Inf(1)
	pred := make([]float64, len(d))
	for d0 := 0; d0 < cand; d0++ {
		for i := range pred {
			pred[i] = float64(analytic.Gamma(d0+(kmin+i)*dn, cand))
		}
		zp := zscore(pred)
		if zp == nil {
			continue
		}
		var sse float64
		for i := range obs {
			diff := obs[i] - zp[i]
			sse += diff * diff
		}
		best = min(best, sse/float64(len(d)))
	}
	return best
}

// compareWithReference checks ModelFitUBD against modelFitReference on
// one series. Both must return the same ubd, the same residual < 0.2
// verdict and residuals within 1e-9. The one allowed difference is a
// true tie: the sweep then returns the smaller ubd, and the reference's
// own residual at that ubd is within 1e-9 of its best.
func compareWithReference(d []float64, kmin int, deltaNop float64, maxUBD int) error {
	got, gotRes := ModelFitUBD(d, kmin, deltaNop, maxUBD)
	want, wantRes := modelFitReference(d, kmin, deltaNop, maxUBD)
	if (gotRes < 0.2) != (wantRes < 0.2) {
		return fmt.Errorf("verdicts differ: fit (%d, %g), reference (%d, %g)", got, gotRes, want, wantRes)
	}
	if math.IsInf(gotRes, 1) || math.IsInf(wantRes, 1) {
		if got != want || gotRes != wantRes {
			return fmt.Errorf("fit (%d, %g), reference (%d, %g)", got, gotRes, want, wantRes)
		}
		return nil
	}
	if math.Abs(gotRes-wantRes) > 1e-9 {
		return fmt.Errorf("residuals differ: fit (%d, %g), reference (%d, %g)", got, gotRes, want, wantRes)
	}
	if got == want {
		return nil
	}
	if got > want {
		return fmt.Errorf("fit chose ubd %d over the reference's smaller %d (residuals %g, %g)", got, want, gotRes, wantRes)
	}
	if at := referenceResidualAt(d, kmin, deltaNop, got); at > wantRes+1e-9 {
		return fmt.Errorf("fit chose ubd %d, but the reference scores it %g against %g at ubd %d: not a tie", got, at, wantRes, want)
	}
	return nil
}

// defaultMaxUBD is the scan bound detect passes when Options.MaxUBD is 0.
func defaultMaxUBD(n int) int { return max(16, 4*n) }

// fitGolden is one fit DocumentFor runs while rendering a plan: the
// slowdown series and fit arguments, with the ubd and residual < 0.2
// verdict the original cubic fit returned.
type fitGolden struct {
	Name      string    `json:"name"`
	KMin      int       `json:"kmin"`
	DeltaNop  float64   `json:"delta_nop"`
	MaxUBD    int       `json:"max_ubd"`
	UBD       int       `json:"ubd"`
	Fits      bool      `json:"fits"`
	Slowdowns []float64 `json:"slowdowns"`
}

// TestModelFitGoldenSeries replays the 46 fits behind the documents of
// derive on ref and var, the stock abl-dnop, abl-arb and abl-scaling
// plans, and the 24 derive geometries of cores 3–8 × l2hit {3, 6, 9, 12}
// with kmax = 2·ubd + 8. Each name is the plan, with "#i" for its i-th
// fit. The recorded ubd and verdict are modelFitReference's.
func TestModelFitGoldenSeries(t *testing.T) {
	f, err := os.Open("testdata/modelfit-golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	count := 0
	for dec.More() {
		var g fitGolden
		if err := dec.Decode(&g); err != nil {
			t.Fatal(err)
		}
		count++
		ubd, res := ModelFitUBD(g.Slowdowns, g.KMin, g.DeltaNop, g.MaxUBD)
		if ubd != g.UBD || (res < 0.2) != g.Fits {
			t.Errorf("%s: fit = (%d, residual %g), want ubd %d with fits=%v", g.Name, ubd, res, g.UBD, g.Fits)
		}
	}
	if count != 46 {
		t.Errorf("golden holds %d fits, want 46", count)
	}
}

// TestModelFitMatchesReference is the differential test on noisy
// synthetic saw-tooths over kmin ∈ {0, 1, 2}, δnop 1–4 and ubd 2–120.
// The sweep lengths span from too short to fit (n < 6) to three periods
// and more.
func TestModelFitMatchesReference(t *testing.T) {
	count := 300
	if testing.Short() {
		count = 40
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < count; i++ {
		kmin := rng.Intn(3)
		dn := 1 + rng.Intn(4)
		ubd := 2 + rng.Intn(119)
		d0 := rng.Intn(ubd)
		n := 4 + rng.Intn(3*ubd/dn+12)
		noise := float64(rng.Intn(101))
		d := sawtoothSeries(d0, dn, ubd, kmin, n, noise, int64(i))
		if err := compareWithReference(d, kmin, float64(dn), defaultMaxUBD(n)); err != nil {
			t.Errorf("kmin=%d δnop=%d ubd=%d δ0=%d n=%d noise=%g: %v", kmin, dn, ubd, d0, n, noise, err)
		}
	}
}

// TestModelFitNegativeKMin: γ of a negative injection time is undefined,
// so a sweep that starts below k = 0 fits nothing.
func TestModelFitNegativeKMin(t *testing.T) {
	d := sawtoothSeries(1, 1, 27, 1, 81, 0, 1)
	if got, res := ModelFitUBD(d, -1, 1, 80); got != 0 || !math.IsInf(res, 1) {
		t.Errorf("kmin=-1: fit = (%d, %g), want (0, +Inf)", got, res)
	}
}

// TestModelFitAllocs pins the fit's constant allocation count.
func TestModelFitAllocs(t *testing.T) {
	for _, dn := range []int{1, 2} {
		d := sawtoothSeries(1, dn, 27, 1, 81, 0, 1)
		allocs := testing.AllocsPerRun(20, func() { ModelFitUBD(d, 1, float64(dn), defaultMaxUBD(len(d))) })
		if allocs > 4 {
			t.Errorf("δnop=%d: %.0f allocations per fit of 81 samples, want at most 4", dn, allocs)
		}
	}
}

// FuzzModelFitUBD decodes its inputs into a noisy saw-tooth and checks
// the fit's range invariants and its agreement with modelFitReference.
func FuzzModelFitUBD(f *testing.F) {
	f.Add(uint8(80), uint8(1), uint8(1), uint8(27), uint8(0), uint8(0), int64(1))
	f.Fuzz(func(t *testing.T, nRaw, kminRaw, dnRaw, ubdRaw, d0Raw, noiseRaw uint8, seed int64) {
		n := int(nRaw)
		kmin := int(kminRaw) % 3
		dn := 1 + int(dnRaw)%4
		ubd := 2 + int(ubdRaw)%119
		d0 := int(d0Raw) % ubd
		noise := float64(noiseRaw % 101)
		d := sawtoothSeries(d0, dn, ubd, kmin, n, noise, seed)
		maxUBD := defaultMaxUBD(n)

		got, res := ModelFitUBD(d, kmin, float64(dn), maxUBD)
		if got != 0 && (got < 2 || got > min(maxUBD, n*dn/2)) {
			t.Fatalf("ubd %d outside [2, min(%d, %d)]", got, maxUBD, n*dn/2)
		}
		if (got == 0) != math.IsInf(res, 1) || !(res >= 0) {
			t.Fatalf("fit (%d, %g): want ubd 0 with +Inf, or a residual ≥ 0", got, res)
		}
		if err := compareWithReference(d, kmin, float64(dn), maxUBD); err != nil {
			t.Fatal(err)
		}
	})
}
