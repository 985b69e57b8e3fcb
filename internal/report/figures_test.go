package report_test

import (
	"strings"
	"testing"

	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// The paper's evaluation, figure by figure, over the path every CLI and
// the server take: compile the figure's generator into a plan, run it
// through a storeless store.Session, and convert the recorded rows with
// the report package's *From functions. Each test pins the numbers the
// paper reports (or the simulator's documented deviation from them).

// runGenerator compiles a registered generator with params and runs the
// plan, returning the job list and the recorded results.
func runGenerator(t *testing.T, name string, params scenario.Params) ([]scenario.Job, []scenario.Result) {
	t.Helper()
	c, err := scenario.CompileGenerator(name, params)
	if err != nil {
		t.Fatal(err)
	}
	var sess store.Session
	results, err := sess.RunAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return c.Jobs, results
}

// renderText renders a generator's document as text.
func renderText(t *testing.T, gen string, jobs []scenario.Job, results []scenario.Result) string {
	t.Helper()
	out, err := report.Render(gen, jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFig2Scenario(t *testing.T) {
	jobs, results := runGenerator(t, "fig2", nil)
	f, err := report.Fig2From(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if f.Gamma != 3 {
		t.Errorf("Fig. 2: γ = %d, paper shows 3 for δ=9, ubd=6", f.Gamma)
	}
	if !strings.Contains(f.Timeline, "port0") {
		t.Error("timeline missing")
	}
}

func TestFig3MatchesEq2(t *testing.T) {
	jobs, results := runGenerator(t, "fig3", scenario.Params{"max_delta": 13})
	rows, err := report.GammaRowsFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The exact Fig. 3 matrix: 6 5 4 3 2 1 0 5 ...
	want := []int{6, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 5}
	for i, r := range rows {
		if r.Delta != i {
			t.Errorf("row %d: delta %d", i, r.Delta)
		}
		if r.GammaAnalytic != want[i] {
			t.Errorf("δ=%d: analytic %d, want %d", i, r.GammaAnalytic, want[i])
		}
		if r.GammaSim != r.GammaAnalytic {
			t.Errorf("δ=%d: sim %d ≠ analytic %d", i, r.GammaSim, r.GammaAnalytic)
		}
	}
	if strings.Contains(renderText(t, "fig3", jobs, results), "mismatch") {
		t.Error("render flags a mismatch")
	}
}

func TestFig4MatchesEq2(t *testing.T) {
	// Two full periods of the saw-tooth on the reference platform.
	jobs, results := runGenerator(t, "fig4", scenario.Params{"max_delta": 54})
	rows, err := report.GammaRowsFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 54 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GammaSim != r.GammaAnalytic {
			t.Errorf("δ=%d: sim %d ≠ Eq. 2 %d", r.Delta, r.GammaSim, r.GammaAnalytic)
		}
	}
}

func TestFig5Scenarios(t *testing.T) {
	jobs, results := runGenerator(t, "fig5", scenario.Params{"ks": []int{1, 2, 5, 6}})
	scen, err := report.Fig5From(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(scen) != 4 {
		t.Fatalf("scenarios = %d", len(scen))
	}
	// The paper's progression on the toy platform (δrsk = 1):
	// k=1 → δ=2 → γ=4; k=2 → δ=3 → γ=3; k=5 → δ=6 → γ=0;
	// k=6 → δ=7 → γ=5 (wraps back up).
	want := map[int]int{1: 4, 2: 3, 5: 0, 6: 5}
	for _, s := range scen {
		if s.Gamma != want[s.K] {
			t.Errorf("k=%d: γ = %d, want %d", s.K, s.Gamma, want[s.K])
		}
		if s.Delta != 1+s.K {
			t.Errorf("k=%d: δ = %d", s.K, s.Delta)
		}
		if s.Timeline == "" {
			t.Errorf("k=%d: missing timeline", s.K)
		}
	}
}

func TestFig6a(t *testing.T) {
	jobs, results := runGenerator(t, "fig6a", scenario.Params{"arch": "ref", "count": 4, "seed": 1})
	res, err := report.Fig6aFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	// 4×rsk: every request finds all three contenders ready.
	if res.RSKFrac[3] < 0.999 {
		t.Errorf("rsk 3-contender share = %.3f, want ≈ 1", res.RSKFrac[3])
	}
	// EEMBC-like: the bus is empty or single-contended most of the time.
	if low := res.EEMBCFrac[0] + res.EEMBCFrac[1]; low < 0.5 {
		t.Errorf("EEMBC 0-1 contender share = %.3f, paper says 'most of the times'", low)
	}
	if len(res.WorkloadNames) != 4 {
		t.Errorf("workloads = %d", len(res.WorkloadNames))
	}
	if !strings.Contains(renderText(t, "fig6a", jobs, results), "ready-contenders") {
		t.Error("render header missing")
	}
}

func TestFig6b(t *testing.T) {
	jobs, results := runGenerator(t, "fig6b", scenario.Params{"archs": []string{"ref", "var"}})
	res, err := report.Fig6bFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	// The paper's exact numbers: ubdm 26 (ref) and 23 (var), actual 27,
	// with 98% of requests at the dominant delay.
	if res[0].UBDm != 26 || res[0].ActualUBD != 27 {
		t.Errorf("ref: ubdm %d / actual %d", res[0].UBDm, res[0].ActualUBD)
	}
	if res[1].UBDm != 23 {
		t.Errorf("var: ubdm %d", res[1].UBDm)
	}
	for _, r := range res {
		if r.ModeFrac < 0.97 || r.ModeFrac > 0.99 {
			t.Errorf("%s: mode share %.3f, paper reports 98%%", r.Arch, r.ModeFrac)
		}
		if r.Hist.Total() == 0 {
			t.Errorf("%s: no requests simulated", r.Arch)
		}
	}
	if !strings.Contains(renderText(t, "fig6b", jobs, results), "ubdm") {
		t.Error("render missing")
	}
}

func TestFig7a(t *testing.T) {
	jobs, results := runGenerator(t, "fig7a", scenario.Params{"kmax": 56, "iters": 5})
	res, err := report.Fig7aFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	// Peaks at 27/54 (ref) and 24/51 (var): period 27 on both.
	for _, c := range []struct {
		arch  string
		got   []int
		peaks []int
	}{{"ref", res.RefPeaks, []int{27, 54}}, {"var", res.VarPeaks, []int{24, 51}}} {
		want := map[int]bool{}
		for _, pk := range c.peaks {
			want[pk] = true
		}
		for _, pk := range c.got {
			if !want[pk] {
				t.Errorf("unexpected %s peak at k=%d", c.arch, pk)
			}
			delete(want, pk)
		}
		if len(want) != 0 {
			t.Errorf("missing %s peaks: %v (got %v)", c.arch, want, c.got)
		}
	}
	if !strings.Contains(renderText(t, "fig7a", jobs, results), "peaks") {
		t.Error("render missing peaks")
	}
}

func TestFig7b(t *testing.T) {
	// The window must be long enough for the store backlog to reach the
	// buffer bound near the crossover: with 10 stores per iteration and
	// an 8-entry buffer, ~30 iterations suffice for k up to 34.
	jobs, results := runGenerator(t, "fig7b", scenario.Params{"arch": "ref", "kmax": 45, "iters": 30})
	res, err := report.Fig7bFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZeroFromK < 0 {
		t.Fatal("store slowdown never reached zero")
	}
	// In this simulator the tooth ends once the production period
	// exceeds the full round: k = Nc*lbus - storeCost = 35 (DESIGN.md).
	// Near the asymptote the backlog fill time diverges, so a finite
	// window may truncate one step early.
	if res.ZeroFromK < 34 || res.ZeroFromK > 35 {
		t.Errorf("zero from k=%d, expected 34..35 (steady state: Nc*lbus - 1 = 35)", res.ZeroFromK)
	}
	// Single tooth: nonzero before, all zero after.
	for _, p := range res.Points {
		if p.K >= res.ZeroFromK && p.Slowdown != 0 {
			t.Errorf("slowdown %d at k=%d after the tooth", p.Slowdown, p.K)
		}
		if p.K < 30 && p.Slowdown == 0 {
			t.Errorf("unexpected zero inside the tooth at k=%d", p.K)
		}
	}
	if !strings.Contains(renderText(t, "fig7b", jobs, results), "zero from") {
		t.Error("render missing")
	}
}

// TestAblationArbiters runs the E9a ablation on ref: the Eq. 3 mapping
// holds under round-robin (and WRR, whose single-outstanding cores
// degenerate to it), and the derivation refuses TDMA's flat slowdown.
func TestAblationArbiters(t *testing.T) {
	jobs, results := runGenerator(t, "abl-arb", scenario.Params{"arch": "ref"})
	rows, err := report.ArbitersFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Arbiter {
		case "rr", "wrr":
			if r.Err != "" || r.DerivedUBDm != r.ActualUBD {
				t.Errorf("%s: derived %d (err %q), want Eq. 1 = %d", r.Arbiter, r.DerivedUBDm, r.Err, r.ActualUBD)
			}
		case "tdma":
			if r.Err == "" {
				t.Errorf("tdma: derived %d, want a refusal", r.DerivedUBDm)
			}
		}
	}
}

// TestAblationDeltaNop runs the E9b ablation on ref: the model fit
// derives 27 at every nop latency, including where the naive
// period×δnop reading aliases.
func TestAblationDeltaNop(t *testing.T) {
	jobs, results := runGenerator(t, "abl-dnop", scenario.Params{"arch": "ref", "max_nop": 3})
	rows, err := report.DeltaNopsFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" || r.DerivedUBDm != r.ActualUBD {
			t.Errorf("nop latency %d: derived %d (err %q), want %d", r.NopLatency, r.DerivedUBDm, r.Err, r.ActualUBD)
		}
	}
}

// TestAblationScalingRecoversEq1 runs the E9c ablation on its stock grid
// (cores {3,4,6,8} × L2 hit {3,6,12}, transfer 3): the methodology must
// derive exactly Eq. 1 on every geometry it does not refuse.
func TestAblationScalingRecoversEq1(t *testing.T) {
	jobs, results := runGenerator(t, "abl-scaling", scenario.Params{
		"arch": "ref", "cores": []int{3, 4, 6, 8}, "l2hits": []int{3, 6, 12},
	})
	rows, err := report.ScalingFrom(jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Err == "" && r.DerivedUBDm != r.ActualUBD {
			t.Errorf("nc=%d lbus=%d: derived %d, actual %d", r.Cores, r.LBus, r.DerivedUBDm, r.ActualUBD)
		}
	}
}
