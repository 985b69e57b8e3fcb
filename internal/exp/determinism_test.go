package exp_test

import (
	"testing"

	"rrbus/internal/exp"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// The engine's core contract: a figure batch run with 1 worker and with
// many workers renders byte-identical output. These tests regenerate real
// paper artifacts (not synthetic jobs) under both settings, over the
// path every CLI takes (generator plan → store.Session → report), so
// they cover job fan-out, per-job simulator isolation, index-ordered
// result folding, and the renderers. Run with -race to also check that
// concurrent simulations share no mutable state.

func renderAt(t *testing.T, workers int, gen string, params scenario.Params) string {
	t.Helper()
	exp.SetWorkers(workers)
	defer exp.SetWorkers(0)
	c, err := scenario.CompileGenerator(gen, params)
	if err != nil {
		t.Fatal(err)
	}
	var sess store.Session
	results, err := sess.RunAll(c)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out, err := report.Render(gen, c.Jobs, results)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

func checkDeterministic(t *testing.T, gen string, params scenario.Params) {
	t.Helper()
	serial := renderAt(t, 1, gen, params)
	if serial == "" {
		t.Fatal("empty rendering")
	}
	for _, workers := range []int{2, 8} {
		if got := renderAt(t, workers, gen, params); got != serial {
			t.Errorf("workers=%d output differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

func TestFig7SweepDeterminism(t *testing.T) {
	checkDeterministic(t, "fig7b", scenario.Params{"arch": "toy", "kmax": 16, "iters": 5})
}

func TestFig3Determinism(t *testing.T) {
	checkDeterministic(t, "fig3", scenario.Params{"max_delta": 9})
}

func TestFig6aDeterminism(t *testing.T) {
	// Fig6a folds floating-point fractions across workloads; the fold
	// happens in set order after the parallel phase, so even the float
	// accumulation must match bitwise.
	checkDeterministic(t, "fig6a", scenario.Params{"arch": "toy", "count": 4, "seed": 7})
}

func TestScalingAblationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("derivation sweep is slow")
	}
	checkDeterministic(t, "abl-scaling", scenario.Params{"arch": "ref", "cores": []int{3, 4}, "l2hits": []int{3}})
}
