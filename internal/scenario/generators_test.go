package scenario_test

import (
	"fmt"
	"reflect"
	"testing"

	"rrbus/internal/analytic"
	"rrbus/internal/core"
	"rrbus/internal/isa"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
)

func expand(t *testing.T, gen string, p scenario.Params) []scenario.Job {
	t.Helper()
	g, ok := scenario.Lookup(gen)
	if !ok {
		t.Fatalf("generator %q not registered", gen)
	}
	jobs, err := g.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestGeneratorRegistry(t *testing.T) {
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig7a", "fig7b",
		"derive", "abl-scaling", "abl-arb", "abl-dnop", "mix"} {
		if _, ok := scenario.Lookup(name); !ok {
			t.Errorf("generator %q missing (have %v)", name, scenario.Names())
		}
	}
}

func TestGeneratorExpansionDeterministic(t *testing.T) {
	p := scenario.Params{"arch": "ref", "kmax": float64(6)}
	a := expand(t, "fig7", p)
	b := expand(t, "fig7", p)
	if len(a) != len(b) {
		t.Fatalf("expansion size changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("job %d id changed: %q vs %q", i, a[i].ID, b[i].ID)
		}
	}
}

// sweepPoint is one k of the in-process reference sweep.
type sweepPoint struct {
	slowdown    int64
	utilization float64
}

// sweep is the in-process reference the fig7 generator is checked
// against: the rsk-nop(t, k) slowdown for k = 1..kmax with iters measured
// iterations per run, measured directly on a core.SimRunner rather than
// through scenario jobs.
func sweep(t *testing.T, cfg sim.Config, typ isa.Op, kmax int, iters uint64) []sweepPoint {
	t.Helper()
	r, err := core.NewSimRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Iters = iters
	pts := make([]sweepPoint, kmax)
	for k := 1; k <= kmax; k++ {
		cont, err := r.RunContended(typ, k)
		if err != nil {
			t.Fatal(err)
		}
		isol, err := r.RunIsolation(typ, k)
		if err != nil {
			t.Fatal(err)
		}
		pts[k-1] = sweepPoint{int64(cont.Cycles) - int64(isol.Cycles), cont.Utilization}
	}
	return pts
}

func TestSweepMatchesAnalyticAmplitude(t *testing.T) {
	// One point cross-check: at k=1 on ref the sweep runner uses a
	// fixed unroll of 2, so each iteration issues 9 inner requests at
	// γ(δ=2) plus one loop-boundary request at γ(δ=3).
	pts := sweep(t, sim.NGMPRef(), isa.OpLoad, 1, 10)
	wantPerIter := analytic.SlowdownPerIteration(9, 2, 3, 27)
	if got := pts[0].slowdown; got != int64(wantPerIter*10) {
		t.Errorf("slowdown = %d, analytic model says %d", got, wantPerIter*10)
	}
}

func TestFig7GeneratorMatchesSweep(t *testing.T) {
	// The declarative fig7 jobs must reproduce the in-process sweep
	// exactly: same kernels, same protocol, same slowdown numbers.
	cfg := sim.Toy()
	const kmax, iters = 6, 20
	pts := sweep(t, cfg, isa.OpLoad, kmax, iters)
	jobs := expand(t, "fig7", scenario.Params{"arch": "toy", "kmax": float64(kmax), "iters": float64(iters)})
	if len(jobs) != kmax {
		t.Fatalf("%d jobs for kmax=%d", len(jobs), kmax)
	}
	results, err := scenario.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Slowdown != pts[i].slowdown {
			t.Errorf("k=%d: scenario slowdown %d != sweep slowdown %d", i+1, r.Slowdown, pts[i].slowdown)
		}
		if r.Utilization != pts[i].utilization {
			t.Errorf("k=%d: scenario utilization %v != sweep %v", i+1, r.Utilization, pts[i].utilization)
		}
	}
}

func TestDeriveGeneratorShape(t *testing.T) {
	jobs := expand(t, "derive", scenario.Params{"arch": "toy", "kmin": float64(1), "kmax": float64(5)})
	if len(jobs) != 6 {
		t.Fatalf("derive 1..5 expanded to %d jobs, want 6 (δnop + 5 ks)", len(jobs))
	}
	if jobs[0].ID != "derive/toy/load/dnop" || jobs[0].Scenario.Workload.Scua != "nop" {
		t.Errorf("job 0 is not the δnop calibration: %+v", jobs[0])
	}
	for k := 1; k <= 5; k++ {
		want := fmt.Sprintf("derive/toy/load/k=%d", k)
		if jobs[k].ID != want {
			t.Errorf("job %d id %q, want %q", k, jobs[k].ID, want)
		}
		if !jobs[k].Isolation {
			t.Errorf("job %d not isolation-paired", k)
		}
	}
}

func TestAblationGeneratorsCoverGrid(t *testing.T) {
	// Every ablation block is a self-contained derivation: a δnop
	// calibration job followed by the k sweep.
	jobs := expand(t, "abl-scaling", scenario.Params{
		"cores": []any{float64(2), float64(3)}, "l2hits": []any{float64(3)}, "kmax": float64(4),
	})
	if len(jobs) != 10 {
		t.Fatalf("2x1 grid with kmax=4 expanded to %d jobs, want 10 (2 x (dnop + 4 ks))", len(jobs))
	}
	if jobs[0].ID != "abl-scaling/n2-l6/dnop" || jobs[0].Scenario.Workload.Scua != "nop" {
		t.Errorf("first job is not the δnop calibration: %+v", jobs[0])
	}
	if jobs[1].ID != "abl-scaling/n2-l6/k=1" {
		t.Errorf("second job id %q", jobs[1].ID)
	}

	arb := expand(t, "abl-arb", scenario.Params{"kmax": float64(2)})
	if len(arb) != 15 {
		t.Fatalf("5 policies x (dnop + 2 ks) expanded to %d jobs", len(arb))
	}
	if arb[3].ID != "abl-arb/tdma/dnop" || arb[3].Scenario.Platform.Arbiter != "tdma" {
		t.Errorf("job 3 = %q arbiter %q, want the tdma block's dnop", arb[3].ID, arb[3].Scenario.Platform.Arbiter)
	}

	dnop := expand(t, "abl-dnop", scenario.Params{"max_nop": float64(2), "kmax": float64(3)})
	if len(dnop) != 8 {
		t.Fatalf("2 nop latencies x (dnop + 3 ks) expanded to %d jobs", len(dnop))
	}
	if dnop[4].ID != "abl-dnop/nop2/dnop" || dnop[4].Scenario.Platform.NopLatency != 2 {
		t.Errorf("job 4 = %q nop latency %d", dnop[4].ID, dnop[4].Scenario.Platform.NopLatency)
	}
}

func TestTimelineGeneratorsCarryTrace(t *testing.T) {
	fig2 := expand(t, "fig2", nil)
	if len(fig2) != 1 || fig2[0].ID != "fig2/delta=9" || fig2[0].Scenario.Protocol.Trace == 0 {
		t.Errorf("fig2 expansion %+v", fig2)
	}
	fig5 := expand(t, "fig5", nil)
	if len(fig5) != 4 || fig5[2].ID != "fig5/k=5" || fig5[2].Scenario.Protocol.Trace == 0 {
		t.Errorf("fig5 expansion %+v", fig5)
	}
}

// TestMixGeneratorDeterministic pins the mix generator's contract: the
// same seed always expands to the identical job list (IDs, platforms,
// workloads), and different seeds diverge.
func TestMixGeneratorDeterministic(t *testing.T) {
	p := scenario.Params{"count": float64(12), "seed": float64(42)}
	a := expand(t, "mix", p)
	b := expand(t, "mix", p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mix expansion is not deterministic for a fixed seed")
	}
	if len(a) != 12 {
		t.Fatalf("count=12 expanded to %d jobs", len(a))
	}
	seen := map[string]bool{}
	for i, j := range a {
		if !j.Isolation {
			t.Errorf("job %d not isolation-paired", i)
		}
		if j.Scenario.Platform.Arbiter == "" {
			t.Errorf("job %d has no arbiter", i)
		}
		seen[j.Scenario.Platform.Arbiter] = true
		if len(j.Scenario.Workload.Contenders) != 3 {
			t.Errorf("job %d has %d contenders, want 3", i, len(j.Scenario.Workload.Contenders))
		}
	}
	if len(seen) < 2 {
		t.Errorf("12 mixes drew only arbiters %v, want variety", seen)
	}
	c := expand(t, "mix", scenario.Params{"count": float64(12), "seed": float64(43)})
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical mixes")
	}
}
