package scenario_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rrbus/internal/exp"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
	"rrbus/internal/store"
)

// goldenScenario is the canonical serialized form of a WRR scenario; the
// round-trip tests pin both directions so the on-disk format stays
// stable across refactors.
const goldenScenario = `{
  "name": "wrr-asymmetric",
  "platform": {
    "arch": "ref",
    "arbiter": "wrr",
    "wrr_weights": [
      2,
      1,
      1,
      1
    ]
  },
  "workload": {
    "scua": "rsknop:load:5",
    "contenders": [
      "rsk:load",
      "rsk:load",
      "rsk:load"
    ]
  },
  "protocol": {
    "warmup": 3,
    "iters": 10,
    "gammas": true
  }
}`

func goldenValue() scenario.Scenario {
	return scenario.Scenario{
		Name: "wrr-asymmetric",
		Platform: scenario.PlatformSpec{
			Arch:       "ref",
			Arbiter:    "wrr",
			WRRWeights: []int{2, 1, 1, 1},
		},
		Workload: scenario.WorkloadSpec{
			Scua:       "rsknop:load:5",
			Contenders: []string{"rsk:load", "rsk:load", "rsk:load"},
		},
		Protocol: scenario.Protocol{Warmup: 3, Iters: 10, Gammas: true},
	}
}

func TestScenarioJSONRoundTripGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenValue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenScenario {
		t.Errorf("marshal drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, goldenScenario)
	}

	var back scenario.Scenario
	if err := json.Unmarshal([]byte(goldenScenario), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenValue()) {
		t.Errorf("unmarshal round-trip drifted: %+v", back)
	}
}

func TestPlanLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"jobs": [], "wrokers": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Load(path); err == nil {
		t.Fatal("Load accepted a misspelled field")
	}
}

func TestPlanExpandShapes(t *testing.T) {
	// Generator form.
	p := &scenario.Plan{Generator: "fig7", Params: scenario.Params{"arch": "toy", "kmax": float64(4)}}
	jobs, err := p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("fig7 kmax=4 expanded to %d jobs", len(jobs))
	}
	if jobs[2].ID != "fig7/toy/load/k=3" || !jobs[2].Isolation {
		t.Errorf("job 2 = %+v", jobs[2])
	}

	// Single-scenario shorthand.
	s := goldenValue()
	p = &scenario.Plan{Scenario: &s}
	jobs, err = p.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "wrr-asymmetric" {
		t.Fatalf("scenario shorthand expanded to %+v", jobs)
	}

	// Ambiguous plans are rejected.
	p = &scenario.Plan{Generator: "fig7", Scenario: &s}
	if _, err := p.Expand(); err == nil {
		t.Fatal("ambiguous plan accepted")
	}
	// Unknown generators are rejected with the available names.
	p = &scenario.Plan{Generator: "nope"}
	if _, err := p.Expand(); err == nil || !strings.Contains(err.Error(), "fig7") {
		t.Fatalf("unknown generator error %v should list alternatives", err)
	}
}

func TestPlatformSpecBuild(t *testing.T) {
	cfg, err := scenario.PlatformSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "ngmp-ref" || cfg.UBD() != 27 {
		t.Errorf("zero spec built %s ubd=%d, want ngmp-ref/27", cfg.Name, cfg.UBD())
	}

	cfg, err = scenario.PlatformSpec{Arch: "ref", Cores: 6, Transfer: 3, L2Hit: 12}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 6 || cfg.BusLatency() != 15 || cfg.UBD() != 75 {
		t.Errorf("scaled spec built cores=%d lbus=%d ubd=%d", cfg.Cores, cfg.BusLatency(), cfg.UBD())
	}
	if cfg.L2.Ways != 6 {
		t.Errorf("scaled L2 not re-partitioned: %d ways for 6 cores", cfg.L2.Ways)
	}

	cfg, err = scenario.PlatformSpec{Arch: "toy", Arbiter: "tdma", TDMASlot: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arbiter != sim.ArbiterTDMA || cfg.TDMASlot != 4 {
		t.Errorf("tdma spec built arbiter=%s slot=%d", cfg.Arbiter, cfg.TDMASlot)
	}

	if _, err := (scenario.PlatformSpec{Arch: "bogus"}).Build(); err == nil {
		t.Error("bogus arch accepted")
	}
	if _, err := (scenario.PlatformSpec{Arbiter: "wrr", WRRWeights: []int{1}}).Build(); err == nil {
		t.Error("short WRR weight vector accepted")
	}
}

func TestJobRunMatchesDirectSimulation(t *testing.T) {
	// A declarative job must reproduce the imperative sim.Run byte for
	// byte: same platform, same kernels, same protocol.
	job := scenario.Job{
		ID: "check",
		Scenario: scenario.Scenario{
			Platform: scenario.PlatformSpec{Arch: "toy"},
			Workload: scenario.WorkloadSpec{
				Scua:       "rsknop:load:3",
				Contenders: []string{"rsk:load", "rsk:load", "rsk:load"},
			},
			Protocol: scenario.Protocol{Warmup: 3, Iters: 10, Gammas: true},
		},
		Isolation: true,
	}
	res, err := job.Run(sim.Steady)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Requests == 0 {
		t.Fatalf("empty result %+v", res)
	}
	if res.Slowdown != int64(res.Cycles)-int64(res.IsolationCycles) {
		t.Errorf("slowdown %d != cycles %d - isolation %d", res.Slowdown, res.Cycles, res.IsolationCycles)
	}
	if len(res.GammaHist) == 0 {
		t.Error("gammas requested but histogram empty")
	}
	// The toy platform saturated by 3 rsk: max γ must not exceed ubd=6
	// by more than the response share, and utilization must be high.
	if res.Utilization < 0.9 {
		t.Errorf("utilization %.2f, want saturated", res.Utilization)
	}
}

// TestShardedPlanByteIdentical is the acceptance criterion at the
// scenario layer: a Fig. 7 k-sweep streamed as two shards and merged is
// byte-identical to the unsharded run.
func TestShardedPlanByteIdentical(t *testing.T) {
	plan, err := scenario.Compile(&scenario.Plan{Generator: "fig7", Params: scenario.Params{
		"arch": "toy", "kmax": float64(8), "iters": float64(5),
	}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := plan.Jobs

	stream := func(shard exp.Shard) string {
		var buf bytes.Buffer
		sink := exp.NewJSONLSink[scenario.Result](&buf)
		if err := (&store.Session{Shard: shard}).Run(plan, sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	full := stream(exp.Shard{})
	s0 := stream(exp.Shard{Index: 0, Count: 2})
	s1 := stream(exp.Shard{Index: 1, Count: 2})
	var merged bytes.Buffer
	if err := exp.MergeJSONL(&merged, strings.NewReader(s0), strings.NewReader(s1)); err != nil {
		t.Fatal(err)
	}
	if merged.String() != full {
		t.Errorf("merged shard output differs from unsharded:\n--- full ---\n%s--- merged ---\n%s", full, merged.String())
	}
	if len(strings.Split(strings.TrimSpace(full), "\n")) != len(jobs) {
		t.Errorf("expected %d rows", len(jobs))
	}
}
