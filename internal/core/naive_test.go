package core_test

import (
	"strings"
	"testing"

	"rrbus/internal/core"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

func TestNaiveUnderestimatesOnFake(t *testing.T) {
	// The synchrony effect: the plain rsk (k=0) suffers γ(δrsk) per
	// request, so det/nr = ubd - δrsk, an underestimate by exactly the
	// injection time.
	for _, tc := range []struct{ ubd, delta0, want int }{
		{27, 1, 26}, {27, 4, 23}, {6, 1, 5},
	} {
		o := newFake(tc.ubd, tc.delta0).run(0)
		res := core.NaiveFrom(int64(o.cycles)-int64(o.isolation), o.requests, o.util)
		if res.UBDm != tc.want {
			t.Errorf("ubd=%d δ0=%d: naive = %d, want %d", tc.ubd, tc.delta0, res.UBDm, tc.want)
		}
		if res.Requests != 500 {
			t.Errorf("requests = %d", res.Requests)
		}
		if res.Det <= 0 {
			t.Errorf("det = %d", res.Det)
		}
	}
}

func TestNaiveRefusesSingleCore(t *testing.T) {
	if _, err := scenario.NaivePlan(scenario.PlatformSpec{Cores: 1}, "load"); err == nil || !strings.Contains(err.Error(), "at least 2 cores") {
		t.Errorf("single core must be refused, got %v", err)
	}
}

func TestNaiveZeroRequests(t *testing.T) {
	if res := core.NaiveFrom(1000, 0, 1); res.UBDm != 0 {
		t.Errorf("no requests must give 0, got %d", res.UBDm)
	}
	// A contended run faster than isolation is noise, not a negative
	// bound.
	if res := core.NaiveFrom(-1000, 500, 1); res.UBDm != 0 || res.Det != -1000 {
		t.Errorf("negative det must give 0 and keep det, got %+v", res)
	}
}

// TestNaiveOnSimulator reproduces the paper's Fig. 6(b) numbers end to
// end from the naive job's recorded row: naive ubdm is 26 on ref and 23
// on var, both short of the actual 27, with the contenders saturating
// the bus.
func TestNaiveOnSimulator(t *testing.T) {
	for _, tc := range []struct {
		arch string
		want int
	}{
		{"ref", 26},
		{"var", 23},
	} {
		spec, err := scenario.NaivePlan(scenario.PlatformSpec{Arch: tc.arch}, "load")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := scenario.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := (&store.Session{}).RunAll(plan)
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.Requests == 0 || r.Slowdown <= 0 {
			t.Fatalf("%s: contention must slow the rsk down: %+v", tc.arch, r)
		}
		res := core.NaiveFrom(r.Slowdown, r.Requests, r.Utilization)
		if res.UBDm != tc.want {
			t.Errorf("%s: naive = %d, paper reports %d", tc.arch, res.UBDm, tc.want)
		}
		if res.Utilization < 0.99 {
			t.Errorf("%s: utilization = %.3f", tc.arch, res.Utilization)
		}
	}
}
