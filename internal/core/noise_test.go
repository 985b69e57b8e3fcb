package core_test

import (
	"testing"

	"rrbus/internal/core"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
)

// noisyRunner replays measurements with deterministic pseudo-random
// jitter, emulating the measurement noise of a real board (timer
// granularity, DRAM refresh, OS interference). It exercises the
// methodology's robustness: the paper's critique of rsk-based bounds (its
// ref. [1]) is precisely that single measurements inspire little
// confidence, so the detectors must tolerate jitter.
//
// Jitter is additive and non-negative (interference only ever slows a
// run), uniformly distributed in [0, amplitude] cycles, drawn from a
// deterministic xorshift stream so experiments stay reproducible.
type noisyRunner struct {
	amplitude uint64
	state     uint64
}

// newNoisyRunner seeds the jitter stream (seed 0 selects a fixed
// default).
func newNoisyRunner(amplitude, seed uint64) *noisyRunner {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &noisyRunner{amplitude: amplitude, state: seed}
}

func (n *noisyRunner) next() uint64 {
	if n.amplitude == 0 {
		return 0
	}
	n.state ^= n.state << 13
	n.state ^= n.state >> 7
	n.state ^= n.state << 17
	return n.state % (n.amplitude + 1)
}

// deltaNop nudges a δnop calibration: a 4000-nop kernel over 20
// iterations spreads the jitter across ≈ 80k executed nops.
func (n *noisyRunner) deltaNop(dn float64) float64 {
	return dn + float64(n.next())/80000
}

// jitter perturbs one isolation-paired measurement: the contended run,
// then its isolation run.
func (n *noisyRunner) jitter(x obs) obs {
	x.cycles += n.next()
	x.isolation += n.next()
	return x
}

func TestNoisyRunnerConstruction(t *testing.T) {
	// Zero amplitude: observations identical to the clean ones.
	f := newFake(27, 1)
	n := newNoisyRunner(0, 0)
	if a, b := f.run(3), n.jitter(f.run(3)); a != b {
		t.Error("zero amplitude must not perturb")
	}
	if n.deltaNop(1) != 1 {
		t.Error("zero amplitude must not perturb δnop")
	}
	// Seed 0 selects the fixed default stream.
	a, b := newNoisyRunner(50, 0), newNoisyRunner(50, 0x9E3779B97F4A7C15)
	for i := 0; i < 10; i++ {
		if a.next() != b.next() {
			t.Fatal("seed 0 must select the default seed")
		}
	}
}

func TestNoisyRunnerDeterministic(t *testing.T) {
	f := newFake(27, 1)
	n1, n2 := newNoisyRunner(50, 7), newNoisyRunner(50, 7)
	for k := 1; k < 20; k++ {
		if n1.jitter(f.run(k)) != n2.jitter(f.run(k)) {
			t.Fatal("same seed must give same jitter")
		}
	}
}

func TestNoisyRunnerJitterIsAdditive(t *testing.T) {
	f := newFake(27, 1)
	n := newNoisyRunner(40, 3)
	for k := 1; k < 30; k++ {
		clean := f.run(k)
		noisy := n.jitter(clean)
		for _, d := range []int64{int64(noisy.cycles) - int64(clean.cycles), int64(noisy.isolation) - int64(clean.isolation)} {
			if d < 0 || d > 40 {
				t.Fatalf("jitter %d outside [0, 40]", d)
			}
		}
	}
}

// TestDeriveSurvivesJitter: the headline robustness property. Per-request
// contention on the fake platform is ubd-amplitude ≈ 26 cycles over 500
// requests ≈ 13000 cycles of slowdown amplitude; jitter of a few hundred
// cycles per measurement must not move the derived bound, given a
// correspondingly relaxed Eq. 3 tolerance.
func TestDeriveSurvivesJitter(t *testing.T) {
	for _, amp := range []uint64{50, 200, 500} {
		f := newFake(27, 1)
		res, err := derive(f.run, f.deltaNop, newNoisyRunner(amp, 11), core.Options{Tolerance: 0.1})
		if err != nil {
			t.Fatalf("amplitude %d: %v", amp, err)
		}
		if res.UBDm != 27 {
			t.Errorf("amplitude %d: derived %d, want 27", amp, res.UBDm)
		}
	}
}

// TestDeriveSurvivesJitterOnSimulator: the recorded rows of a derivation
// block on the cycle-accurate reference platform, jittered by 1% of the
// run length.
func TestDeriveSurvivesJitterOnSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	jobs, results := recordDerivation(t, scenario.PlatformSpec{Arch: "ref"})
	clean, err := report.DerivationFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(k int) obs {
		r := results[k]
		return obs{cycles: r.Cycles, isolation: r.IsolationCycles, requests: r.Requests, util: r.Utilization}
	}
	res, err := derive(measure, clean.DeltaNop, newNoisyRunner(60, 5), core.Options{Tolerance: 0.1, KLimit: len(results) - 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("derived %d under simulator jitter", res.UBDm)
	}
}

// TestDeriveOverwhelmedByNoise: when jitter swamps the contention signal
// the methodology must fail loudly (no period) or flag low confidence —
// never return a confidently wrong bound.
func TestDeriveOverwhelmedByNoise(t *testing.T) {
	f := newFake(27, 1)
	f.requests = 10 // amplitude ≈ 260 cycles
	res, err := derive(f.run, f.deltaNop, newNoisyRunner(5000, 13), core.Options{KLimit: 120})
	if err == nil && res.UBDm == 27 && res.Confidence.Score() > 0.9 {
		// Deriving the right answer from noise this heavy would be
		// luck; accept it only with reduced confidence.
		t.Errorf("confident result from overwhelming noise: %+v", res.Confidence)
	}
}
