package report_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rrbus/internal/exp"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
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

// roundTrip serializes results exactly as Session.RunToFile would
// (JSONL rows with job indices) and decodes them back through the replay
// reader.
func roundTrip(t *testing.T, results []scenario.Result) []scenario.Result {
	t.Helper()
	var buf bytes.Buffer
	sink := exp.NewJSONLSink[scenario.Result](&buf)
	for i, r := range results {
		if err := sink.Emit(i, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := scenario.ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestReplayByteIdentical is the acceptance criterion of the
// results-first pipeline: for every supported figure/table, rendering
// from results that went through the JSONL wire format is byte-identical
// to rendering the live in-memory results.
func TestReplayByteIdentical(t *testing.T) {
	cases := []struct {
		gen    string
		params scenario.Params
		want   string // substring the rendering must contain
	}{
		{"fig2", nil, "γ=3"},
		{"fig3", scenario.Params{"max_delta": 7}, "gamma(eq2)"},
		{"fig5", scenario.Params{"ks": []int{1, 6}}, "port0"},
		{"fig6a", scenario.Params{"arch": "toy", "count": 2, "seed": 1}, "ready-contenders"},
		{"fig6b", scenario.Params{"archs": []string{"toy"}}, "ubdm"},
		{"fig7", scenario.Params{"arch": "toy", "kmax": 8, "iters": 5}, "slowdown"},
		{"fig7b", scenario.Params{"arch": "toy", "kmax": 10, "iters": 5}, "store buffer"},
		{"derive", scenario.Params{"arch": "toy", "kmax": 20}, "derived ubdm"},
		{"abl-scaling", scenario.Params{"cores": []int{2}, "l2hits": []int{1}}, "actual-ubd"},
		{"mix", scenario.Params{"arch": "toy", "count": 2, "kmax": 4}, "mix/000"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.gen, func(t *testing.T) {
			t.Parallel()
			jobs, results := runGenerator(t, tc.gen, tc.params)
			live, err := report.Render(tc.gen, jobs, results)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(live, tc.want) {
				t.Fatalf("rendering lacks %q:\n%s", tc.want, live)
			}
			replay, err := report.Render(tc.gen, jobs, roundTrip(t, results))
			if err != nil {
				t.Fatal(err)
			}
			if replay != live {
				t.Errorf("replayed rendering differs from live:\n--- live ---\n%s--- replay ---\n%s", live, replay)
			}
		})
	}
}

// TestTraceResultRoundTrip pins the wire format of trace-bearing
// results: the captured bus-event window survives JSONL serialization
// exactly, so replayed timelines are the recorded timelines.
func TestTraceResultRoundTrip(t *testing.T) {
	jobs, results := runGenerator(t, "fig5", scenario.Params{"ks": []int{2}})
	if len(results) != 1 || len(results[0].Trace) == 0 {
		t.Fatalf("fig5 job recorded no trace: %+v", results)
	}
	if results[0].Cores == 0 || results[0].TotalCycles == 0 {
		t.Errorf("result misses renderer metadata: cores=%d total_cycles=%d", results[0].Cores, results[0].TotalCycles)
	}
	raw, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, results[0]) {
		t.Errorf("trace-bearing result did not round-trip:\n got %+v\nwant %+v", back, results[0])
	}
	f, err := report.Fig5From(jobs, []scenario.Result{back})
	if err != nil {
		t.Fatal(err)
	}
	if f[0].K != 2 || f[0].Delta != 3 || f[0].Timeline == "" {
		t.Errorf("replayed timeline fig %+v", f[0])
	}
	// The toy platform's steady-state γ at δ = 3 is 3 (Fig. 3 matrix).
	if f[0].Gamma != 3 {
		t.Errorf("k=2: γ = %d, want 3", f[0].Gamma)
	}
}

// TestDerivationFromRecoversUBD checks the bound pipeline end to end on
// recorded results: the toy platform's ubd = 6 must be re-derived from a
// serialized derive sweep.
func TestDerivationFromRecoversUBD(t *testing.T) {
	jobs, results := runGenerator(t, "derive", scenario.Params{"arch": "toy", "kmax": 20})
	d, err := report.DerivationFrom(jobs, roundTrip(t, results))
	if err != nil {
		t.Fatal(err)
	}
	if d.Err != nil {
		t.Fatalf("derivation failed: %v", d.Err)
	}
	if d.Res.UBDm != 6 {
		t.Errorf("derived ubdm = %d, want 6 (toy Eq. 1)", d.Res.UBDm)
	}
	if d.Cfg.UBD() != 6 {
		t.Errorf("rebuilt platform ubd = %d", d.Cfg.UBD())
	}
}

// TestCheckCatchesWrongPlan ensures replaying a recording against a
// different plan is rejected instead of silently mislabeling rows.
func TestCheckCatchesWrongPlan(t *testing.T) {
	jobs, results := runGenerator(t, "fig7", scenario.Params{"arch": "toy", "kmax": 3, "iters": 2})
	other := expand(t, "fig7", scenario.Params{"arch": "toy", "kmax": 3, "iters": 2, "type": "store"})
	if err := report.Check(other, results); err == nil {
		t.Error("results accepted against a plan with different job IDs")
	}
	if err := report.Check(jobs[:2], results); err == nil {
		t.Error("truncated job list accepted")
	}
	if err := report.Check(jobs, results); err != nil {
		t.Errorf("matching plan rejected: %v", err)
	}
}
