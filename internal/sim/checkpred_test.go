package sim

import (
	"strings"
	"testing"

	"rrbus/internal/isa"
	"rrbus/internal/kernel"
)

// newCheckPredSystem builds a small saturated system for the predicate
// assertion tests.
func newCheckPredSystem(t *testing.T) *System {
	t.Helper()
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	progs := make([]*isa.Program, cfg.Cores)
	iters := make([]uint64, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		p, err := b.RSK(c, isa.OpLoad)
		if err != nil {
			t.Fatal(err)
		}
		progs[c] = p
	}
	iters[0] = 50
	sys, err := NewSystem(cfg, progs, iters)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCheckPredicateFlagsCyclePredicate pins the RunUntil footgun guard:
// with checkPredicates enabled, a predicate that reads a raw Cycle()
// threshold — which the event-driven clock can observe late — must panic
// with a message that names the contract, while a predicate expressed in
// simulated state must run unmolested.
func TestCheckPredicateFlagsCyclePredicate(t *testing.T) {
	t.Parallel()
	t.Run("cycle-threshold-panics", func(t *testing.T) {
		sys := newCheckPredSystem(t)
		sys.checkPredicates = true
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("RunUntil accepted a Cycle()-reading predicate with checkPredicates on")
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "predicate reads Cycle()") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		sys.RunUntil(func() bool { return sys.Cycle() > 500 }, 1<<20)
	})

	t.Run("state-predicate-passes", func(t *testing.T) {
		sys := newCheckPredSystem(t)
		sys.checkPredicates = true
		if !sys.RunUntil(func() bool { return sys.Core(0).Iters() >= 3 }, 1<<20) {
			t.Fatal("state-based predicate did not complete")
		}
	})

	t.Run("disabled-by-default", func(t *testing.T) {
		sys := newCheckPredSystem(t)
		// Without the assertion the cycle predicate still terminates (the
		// clock eventually passes the threshold); it must not panic.
		if !sys.RunUntil(func() bool { return sys.Cycle() > 500 }, 1<<20) {
			t.Fatal("cycle predicate never satisfied")
		}
	})
}
