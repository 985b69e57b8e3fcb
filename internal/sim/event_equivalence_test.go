package sim

import (
	"fmt"
	"reflect"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/cpu"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/workload"
)

// The event-driven core must be invisible under every arbitration policy,
// not just the paper's round-robin: deferred submissions, closed-form
// stall charging and the jump scheduler interact with slot-based (TDMA)
// and weighted (WRR) grant decisions too. These tests sweep seeded random
// mix workloads and saturated store kernels across RR, WRR and TDMA,
// diffing the full Measurement, the grant trace and every core's stall
// counters between the event core and the cycle-by-cycle oracle.

// eqArbiters returns the arbiter configurations the equivalence sweep
// covers, in deterministic order.
func eqArbiters() []struct {
	name string
	cfg  Config
} {
	rr := NGMPRef()
	wrr := NGMPRef()
	wrr.Arbiter = ArbiterWRR
	wrr.WRRWeights = []int{2, 1, 1, 3}
	tdma := NGMPRef()
	tdma.Arbiter = ArbiterTDMA
	return []struct {
		name string
		cfg  Config
	}{{"rr", rr}, {"wrr", wrr}, {"tdma", tdma}}
}

// TestEventCoreRandomizedEquivalence runs seeded random task-set mixes —
// whatever blend of loads, stores, ALU runs and branches the generator
// draws — under each arbiter and requires the event core's Measurement
// (histograms, PMCs, cache and bus statistics) and its grant trace to be
// bit-identical to the cycle-by-cycle run.
func TestEventCoreRandomizedEquivalence(t *testing.T) {
	t.Parallel()
	for _, arb := range eqArbiters() {
		for _, seed := range []uint64{7, 21, 42} {
			t.Run(fmt.Sprintf("%s-seed%d", arb.name, seed), func(t *testing.T) {
				ts := workload.RandomTaskSets(1, arb.cfg.Cores, seed)[0]
				run := func(e Engine) (*Measurement, []grantEvent) {
					progs, err := ts.Build()
					if err != nil {
						t.Fatal(err)
					}
					var evs []grantEvent
					m, err := Run(arb.cfg, Workload{Scua: progs[0], Contenders: progs[1:]}, RunOpts{
						WarmupIters: 2, MeasureIters: 5, CollectGammas: true,
						Engine: e,
						OnGrant: func(r *bus.Request) {
							evs = append(evs, grantEvent{r.Port, r.Kind, r.Ready, r.Grant, r.Occupancy})
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					return m, evs
				}
				slowM, slowT := run(Oracle)
				fastM, fastT := run(Event)
				if !reflect.DeepEqual(slowM, fastM) {
					t.Errorf("%v: measurements differ:\ncycle-by-cycle: %+v\nevent-driven:   %+v",
						ts.Names, slowM, fastM)
				}
				if !reflect.DeepEqual(slowT, fastT) {
					t.Errorf("%v: grant traces differ (%d vs %d events)",
						ts.Names, len(slowT), len(fastT))
				}
			})
		}
	}
}

// TestEventCoreStallCountersAllArbiters saturates the store path — every
// core a store rsk, so ports are contended and store buffers fill — and
// requires each core's counters (including the span-accounted
// PortStallCycles and SBStallCycles) and the grant trace to match the
// cycle-by-cycle run under every arbiter.
func TestEventCoreStallCountersAllArbiters(t *testing.T) {
	t.Parallel()
	for _, arb := range eqArbiters() {
		t.Run(arb.name, func(t *testing.T) {
			run := func(e Engine) ([]cpu.Counters, []grantEvent) {
				b := kernel.NewBuilder(arb.cfg.DL1, arb.cfg.IL1, arb.cfg.L2)
				b.Unroll = 2
				scua, err := b.RSKNop(0, isa.OpStore, 4)
				if err != nil {
					t.Fatal(err)
				}
				progs := []*isa.Program{scua}
				iters := []uint64{17}
				for c := 1; c < arb.cfg.Cores; c++ {
					p, err := b.RSK(c, isa.OpStore)
					if err != nil {
						t.Fatal(err)
					}
					progs = append(progs, p)
					iters = append(iters, 0)
				}
				sys, err := NewSystem(arb.cfg, progs, iters)
				if err != nil {
					t.Fatal(err)
				}
				sys.setEngine(e)
				var evs []grantEvent
				sys.Bus().OnGrant = func(r *bus.Request) {
					evs = append(evs, grantEvent{r.Port, r.Kind, r.Ready, r.Grant, r.Occupancy})
				}
				if !sys.RunUntil(func() bool { return sys.Core(0).Done() }, 1<<22) {
					t.Fatal("scua did not finish")
				}
				ctrs := make([]cpu.Counters, arb.cfg.Cores)
				for c := 0; c < arb.cfg.Cores; c++ {
					ctrs[c] = sys.Core(c).Counters()
				}
				return ctrs, evs
			}
			slowC, slowT := run(Oracle)
			fastC, fastT := run(Event)
			if !reflect.DeepEqual(slowC, fastC) {
				t.Errorf("per-core counters differ:\ncycle-by-cycle: %+v\nevent-driven:   %+v", slowC, fastC)
			}
			if !reflect.DeepEqual(slowT, fastT) {
				t.Errorf("grant traces differ (%d vs %d events)", len(slowT), len(fastT))
			}
		})
	}
}
