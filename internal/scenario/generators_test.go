package scenario_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rrbus/internal/analytic"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
	"rrbus/internal/store"
	"rrbus/internal/workload"
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

// run compiles a registered generator with params and runs the plan
// through a storeless store.Session.
func run(gen string, p scenario.Params) ([]scenario.Job, []scenario.Result, error) {
	c, err := scenario.CompileGenerator(gen, p)
	if err != nil {
		return nil, nil, err
	}
	results, err := (&store.Session{}).RunAll(c)
	return c.Jobs, results, err
}

func TestGeneratorRegistry(t *testing.T) {
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig7a", "fig7b",
		"derive", "abl-scaling", "abl-arb", "abl-dnop", "mix", "etb"} {
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

// sweep is the independent reference the fig7 generator is checked
// against: the rsk-nop(t, k) slowdown for k = 1..kmax with iters measured
// iterations per run, built from the kernel builder (unroll 2, warmup 3)
// and measured with sim.Run and sim.RunIsolation directly rather than
// through scenario jobs.
func sweep(t *testing.T, cfg sim.Config, typ isa.Op, kmax int, iters uint64) []sweepPoint {
	t.Helper()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	b.Unroll = 2
	opts := sim.RunOpts{WarmupIters: 3, MeasureIters: iters}
	var cont []*isa.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, typ)
		if err != nil {
			t.Fatal(err)
		}
		cont = append(cont, p)
	}
	pts := make([]sweepPoint, kmax)
	for k := 1; k <= kmax; k++ {
		scua, err := b.RSKNop(0, typ, k)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run(cfg, sim.Workload{Scua: scua, Contenders: cont}, opts)
		if err != nil {
			t.Fatal(err)
		}
		isol, err := sim.RunIsolation(cfg, scua, opts)
		if err != nil {
			t.Fatal(err)
		}
		pts[k-1] = sweepPoint{int64(m.Cycles) - int64(isol.Cycles), m.Utilization}
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
	jobs, results, err := run("fig7", scenario.Params{"arch": "toy", "kmax": float64(kmax), "iters": float64(iters)})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != kmax {
		t.Fatalf("%d jobs for kmax=%d", len(jobs), kmax)
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

func TestDerivePlanSharesGeneratorRows(t *testing.T) {
	// The facade's explicit derivation plans measure exactly what the
	// derive generator's do, so both serve each other's stored rows.
	gen := expand(t, "derive", scenario.Params{"arch": "toy", "cores": float64(3), "kmax": float64(5)})
	plan, err := scenario.DerivePlan(scenario.PlatformSpec{Arch: "toy", Cores: 3}, "load", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "derive/toy-n3-l2/load/k=1..5" {
		t.Errorf("plan name %q", plan.Name)
	}
	if len(plan.Jobs) != len(gen) {
		t.Fatalf("%d jobs, generator has %d", len(plan.Jobs), len(gen))
	}
	for i, j := range plan.Jobs {
		if j.Hash() != gen[i].Hash() {
			t.Errorf("job %d (%s) hashes unlike the generator's %s", i, j.ID, gen[i].ID)
		}
	}
}

func TestNaivePlanShape(t *testing.T) {
	plan, err := scenario.NaivePlan(scenario.PlatformSpec{Arch: "var"}, "load")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 1 {
		t.Fatalf("naive plan has %d jobs", len(plan.Jobs))
	}
	job := plan.Jobs[0]
	w := job.Scenario.Workload
	if w.Scua != "rsknop:load:0" || !reflect.DeepEqual(w.Contenders, []string{"rsk:load", "rsk:load", "rsk:load"}) || !job.Isolation {
		t.Errorf("naive job is not rsk against Nc-1 rsk, isolation-paired: %+v", job)
	}
	// The derivation protocol: the k = 1 job of a derive block differs
	// only in its nop count.
	block, err := scenario.DerivePlan(scenario.PlatformSpec{Arch: "var"}, "load", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	k1 := block.Jobs[1].Scenario
	k1.Workload.Scua = w.Scua
	if !reflect.DeepEqual(k1, job.Scenario) {
		t.Errorf("naive scenario %+v, derive protocol %+v", job.Scenario, k1)
	}
	if _, err := scenario.NaivePlan(scenario.PlatformSpec{}, "ifetch"); err == nil {
		t.Error("an unknown access type must be refused")
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

// TestMixTDMASlotsCoverLbus expands (without simulating) the default mix
// over seeds 1-20 at count 64 and checks that no TDMA job draws a slot
// shorter than the longest bus transaction, which would let a core
// starve until the warmup cap.
func TestMixTDMASlotsCoverLbus(t *testing.T) {
	lbus := sim.NGMPRef().BusLatency()
	tdma := 0
	for seed := 1; seed <= 20; seed++ {
		for _, j := range expand(t, "mix", scenario.Params{"count": float64(64), "seed": float64(seed)}) {
			plat := j.Scenario.Platform
			if plat.Arbiter != "tdma" {
				continue
			}
			tdma++
			if plat.TDMASlot < lbus {
				t.Errorf("seed %d %s: TDMA slot %d < lbus %d", seed, j.ID, plat.TDMASlot, lbus)
			}
			if _, err := plat.Build(); err != nil {
				t.Errorf("seed %d %s: %v", seed, j.ID, err)
			}
		}
	}
	if tdma == 0 {
		t.Fatal("no TDMA job drawn")
	}
}

// TestETBGeneratorShape: the task alone, then against Nc−1 rsk(load),
// then against the last Nc−1 tasks of each random set, every job on one
// seed at the default protocol with no isolation pairing. Job 0's row is
// exactly what sim.RunIsolation measures for the task, and the ubdm
// enters no job hash.
func TestETBGeneratorShape(t *testing.T) {
	params := scenario.Params{"task": "canrdr", "seed": 7, "count": 2}
	jobs, results, err := run("etb", params)
	if err != nil {
		t.Fatal(err)
	}
	sets := workload.RandomTaskSets(2, 4, 7)
	wantIDs := []string{"etb/ref/canrdr/alone", "etb/ref/canrdr/rsk", "etb/ref/canrdr/set0", "etb/ref/canrdr/set1"}
	wantCont := [][]string{nil, {"rsk:load", "rsk:load", "rsk:load"}, sets[0].Names[1:], sets[1].Names[1:]}
	if len(jobs) != len(wantIDs) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(wantIDs))
	}
	for i, j := range jobs {
		w := j.Scenario.Workload
		if j.ID != wantIDs[i] || w.Scua != "canrdr" || w.Seed != 7 || j.Isolation ||
			j.Scenario.Protocol != (scenario.Protocol{}) || !reflect.DeepEqual(w.Contenders, wantCont[i]) {
			t.Errorf("job %d = %+v", i, j)
		}
		if u, err := scenario.ETBUBDm(j); err != nil || u != 27 {
			t.Errorf("job %d: ubdm %d (%v), want Eq. 1's 27", i, u, err)
		}
	}

	cfg := sim.NGMPRef()
	prog, err := workload.BuildSpec(kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2), "canrdr", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	isol, err := sim.RunIsolation(cfg, prog, sim.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Cycles != isol.Cycles || results[0].Requests != isol.Requests {
		t.Errorf("job 0 row: %d cycles, %d requests; RunIsolation: %d, %d",
			results[0].Cycles, results[0].Requests, isol.Cycles, isol.Requests)
	}

	params["ubdm"] = 1
	one, err := scenario.CompileGenerator("etb", params)
	if err != nil {
		t.Fatal(err)
	}
	eq1, err := scenario.CompileGenerator("etb", scenario.Params{"task": "canrdr", "seed": 7, "count": 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.JobHashes(), eq1.JobHashes()) {
		t.Error("ubdm entered a job hash")
	}
	if u, _ := scenario.ETBUBDm(one.Jobs[0]); u != 1 {
		t.Errorf("ubdm %d, want 1", u)
	}
}

// TestETBGeneratorRefusesBadParams: a ubdm below 1, an unknown platform
// and a negative count fail at expansion, each error naming the value.
func TestETBGeneratorRefusesBadParams(t *testing.T) {
	for _, tc := range []struct {
		params scenario.Params
		want   string
	}{
		{scenario.Params{"ubdm": 0}, "ubdm 0"},
		{scenario.Params{"ubdm": -27}, "ubdm -27"},
		{scenario.Params{"arch": "ngmp-xl"}, `"ngmp-xl"`},
		{scenario.Params{"count": -1}, "count -1"},
	} {
		_, err := scenario.CompileGenerator("etb", tc.params)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to name %s", tc.params, err, tc.want)
		}
	}
}

// TestETBUnknownTaskRefusedAtRun: the task is not checked at expansion
// (any task spec a job can name is allowed); running the plan fails and
// names it.
func TestETBUnknownTaskRefusedAtRun(t *testing.T) {
	_, _, err := run("etb", scenario.Params{"task": "nosuchtask", "count": 0})
	if err == nil || !strings.Contains(err.Error(), `unknown task "nosuchtask"`) {
		t.Errorf("err = %v, want it to name the unknown task", err)
	}
}

// TestGeneratorParamsChecked: a key the generator does not declare and a
// value of the wrong kind are expansion errors, the first naming the
// generator and its keys, the second naming the key. Both etb repros
// used to render ubdm = 27 silently. Every plan file under
// examples/scenarios still expands.
func TestGeneratorParamsChecked(t *testing.T) {
	for _, tc := range []struct {
		plan string
		want []string
	}{
		{`{"generator":"etb","params":{"ubdm":"1"}}`, []string{`"etb"`, `param "ubdm" must be an integer`}},
		{`{"generator":"etb","params":{"ubmd":1}}`, []string{`"etb"`, `unknown param "ubmd"`, "valid: arch, count, seed, task, ubdm"}},
		{`{"generator":"fig7","params":{"kmax":12.5}}`, []string{`param "kmax" must be an integer`}},
		{`{"generator":"mix","params":{"seed":-1}}`, []string{`param "seed" must be a non-negative integer`}},
		{`{"generator":"mix","params":{"arbiters":["rr",3]}}`, []string{`param "arbiters" must be a list of strings`}},
		{`{"generator":"fig5","params":{"ks":[1,"2"]}}`, []string{`param "ks" must be a list of integers`}},
		{`{"generator":"fig6b","params":{"archs":"ref"}}`, []string{`param "archs" must be a list of strings`}},
	} {
		var p scenario.Plan
		if err := json.Unmarshal([]byte(tc.plan), &p); err != nil {
			t.Fatal(err)
		}
		_, err := scenario.Compile(&p)
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want it to contain %s", tc.plan, err, want)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example plans found (%v)", err)
	}
	for _, f := range files {
		if _, err := scenario.LoadCompiled(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
