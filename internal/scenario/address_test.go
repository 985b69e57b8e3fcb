package scenario_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrbus/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// addressJobs are hand-built jobs whose scenarios together set every
// Scenario field, at the edges the canonical encoding must spell exactly
// as encoding/json does: large and negative integers, empty and nil
// slices, every idle spelling, and strings that need escapes.
var addressJobs = []struct {
	name string
	job  scenario.Job
}{
	{"zero", scenario.Job{}},
	{"zero-isolation", scenario.Job{ID: "labelled", Isolation: true}},
	{"every-field", scenario.Job{ID: "every-field", Isolation: true, Scenario: scenario.Scenario{
		Name: "every field set",
		Platform: scenario.PlatformSpec{Arch: "ref", Cores: 6, Transfer: 5, L2Hit: 9, NopLatency: 2, StoreBuffer: 4,
			Arbiter: "wrr", TDMASlot: 12, LotterySeed: 1<<63 + 12345, WRRWeights: []int{3, 1, 2, 1, 1, 2}},
		Workload: scenario.WorkloadSpec{Scua: "rsknop:store:7", ScuaCore: 2,
			Contenders: []string{"rsk:load", "", "idle", "  rsk:store ", "basefp"}, Seed: 42, Unroll: 3},
		Protocol: scenario.Protocol{Warmup: 4, Iters: 25, Gammas: true, Trace: 64},
	}}},
	{"lottery-seed-max", scenario.Job{Scenario: scenario.Scenario{
		Platform: scenario.PlatformSpec{Arch: "toy", Arbiter: "lottery", LotterySeed: math.MaxUint64},
		Workload: scenario.WorkloadSpec{Scua: "rsk:load", Contenders: []string{"rsk:load"}, Seed: math.MaxUint64},
		Protocol: scenario.Protocol{Warmup: math.MaxUint64, Iters: 1 << 63},
	}}},
	{"negative-ints", scenario.Job{Scenario: scenario.Scenario{
		Platform: scenario.PlatformSpec{Cores: -1, Transfer: math.MinInt64, L2Hit: math.MaxInt64, NopLatency: -7,
			StoreBuffer: -1, TDMASlot: -3, WRRWeights: []int{-1, 0, math.MinInt64}},
		Workload: scenario.WorkloadSpec{Scua: "nop", ScuaCore: -3, Unroll: -2},
		Protocol: scenario.Protocol{Trace: -1},
	}}},
	{"empty-slices", scenario.Job{Scenario: scenario.Scenario{
		Platform: scenario.PlatformSpec{Arbiter: "wrr", WRRWeights: []int{}},
		Workload: scenario.WorkloadSpec{Scua: "rsk:load", Contenders: []string{}},
	}}},
	{"idle-spellings", scenario.Job{Isolation: true, Scenario: scenario.Scenario{
		Platform: scenario.PlatformSpec{Arch: "ref"},
		Workload: scenario.WorkloadSpec{Scua: "rsknop:load:5",
			Contenders: []string{"", "idle", " idle ", "\t\n", " ", "rsk:load "}},
	}}},
	{"explicit-defaults", scenario.Job{Scenario: scenario.Scenario{
		Platform: scenario.PlatformSpec{Arch: "toy"},
		Workload: scenario.WorkloadSpec{Scua: "rsk:load", Contenders: []string{"rsk:load"}, Seed: 1},
		Protocol: scenario.Protocol{Warmup: 2, Iters: 10},
	}}},
	{"escaped-strings", scenario.Job{Scenario: scenario.Scenario{
		Name:     "<&>\"",
		Platform: scenario.PlatformSpec{Arch: "<ref>&\"quoted\"", Arbiter: "fp\x00\x01\x1f\x7f"},
		Workload: scenario.WorkloadSpec{Scua: "rsk\\load/\b\f\n\r\t",
			Contenders: []string{"é日本", "\u2028\u2029", "\xff\xfe", "a\xc3", "\ufffd", " <&> ", "\x7f"}},
	}}},
}

// namedPlan is a plan and the name its hash goes under in the golden.
type namedPlan struct {
	name string
	plan *scenario.Plan
}

// addressPlans are the plans whose hashes the golden pins: every
// generator at its default params, then a few parameterized plans.
func addressPlans(t *testing.T) []namedPlan {
	t.Helper()
	var out []namedPlan
	for _, gen := range scenario.Names() {
		out = append(out, namedPlan{gen, &scenario.Plan{Generator: gen}})
	}
	for _, arb := range []string{"rr", "wrr", "tdma", "fp", "lottery"} {
		out = append(out, namedPlan{"mix/" + arb, &scenario.Plan{Generator: "mix",
			Params: scenario.Params{"arbiters": []string{arb}, "count": 8, "seed": uint64(7)}}})
	}
	out = append(out,
		namedPlan{"fig2/k=1", &scenario.Plan{Generator: "fig2", Params: scenario.Params{"k": 1, "trace": 64}}},
		namedPlan{"derive/toy", &scenario.Plan{Generator: "derive", Params: scenario.Params{"arch": "toy", "kmax": 12}}})
	dp, err := scenario.DerivePlan(scenario.PlatformSpec{Arch: "ref", Arbiter: "rr"}, "store", 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedPlan{"derive-plan/ref-rr", dp})
}

// TestStoreAddressesGolden pins the store's addresses: the plan hash of
// every registered generator at its default params and of a few
// parameterized plans, and the job hashes of hand-built scenarios. A
// hash that drifts would orphan every row a store recorded under it, so
// a change here is a store migration, never a refactor.
func TestStoreAddressesGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range addressPlans(t) {
		c, err := scenario.Compile(p.plan)
		if err != nil {
			t.Fatalf("compile %s: %v", p.name, err)
		}
		fmt.Fprintf(&b, "plan %s %s\n", p.name, c.Hash())
	}
	for _, j := range addressJobs {
		fmt.Fprintf(&b, "job %s %s\n", j.name, j.job.Hash())
	}
	got := b.String()
	path := filepath.Join("testdata", "addresses.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("store addresses drifted from the golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
