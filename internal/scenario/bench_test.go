package scenario_test

import (
	"testing"

	"rrbus/internal/scenario"
)

// deriveRef compiles the derive generator on ref at its default range:
// the δnop calibration job and 80 isolation-paired rsk-nop jobs.
func deriveRef(tb testing.TB) *scenario.Compiled {
	tb.Helper()
	c, err := scenario.CompileGenerator("derive", scenario.Params{"arch": "ref"})
	if err != nil {
		tb.Fatal(err)
	}
	if len(c.Jobs) != 81 {
		tb.Fatalf("derive ref expands to %d jobs, want 81", len(c.Jobs))
	}
	return c
}

// BenchmarkJobHash times one Job.Hash per op, cycling over the jobs of
// the default ref derivation.
func BenchmarkJobHash(b *testing.B) {
	jobs := deriveRef(b).Jobs
	for i := 0; b.Loop(); i++ {
		jobs[i%len(jobs)].Hash()
	}
}

// BenchmarkCompile times compiling the default ref derivation plan per
// op: expanding its 81 jobs, hashing each and hashing the plan.
func BenchmarkCompile(b *testing.B) {
	plan := &scenario.Plan{Generator: "derive", Params: scenario.Params{"arch": "ref"}}
	for b.Loop() {
		if _, err := scenario.Compile(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJobHashAllocs bounds the allocations of one Job.Hash: the
// canonical bytes are built in a stack buffer, so only the returned
// string should reach the heap.
func TestJobHashAllocs(t *testing.T) {
	j := deriveRef(t).Jobs[40]
	allocs := testing.AllocsPerRun(100, func() { j.Hash() })
	if allocs > 1 {
		t.Errorf("%.0f allocations per Job.Hash, want at most 1", allocs)
	}
}
