package sim

import (
	"reflect"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/cpu"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/workload"
)

// The idle-cycle fast path must be invisible: every grant (port, kind,
// ready, grant, occupancy) and every measurement field must match the
// cycle-by-cycle run exactly. These tests pin that equivalence on the
// saturated, the stretched-injection and the store-buffer workloads.

type grantEvent struct {
	Port      int
	Kind      bus.Kind
	Ready     uint64
	Grant     uint64
	Occupancy int
}

func grantTrace(t *testing.T, cfg Config, k int, op isa.Op, e Engine) []grantEvent {
	t.Helper()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	b.Unroll = 2
	scua, err := b.RSKNop(0, op, k)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*isa.Program{scua}
	iters := []uint64{13}
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, op)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
		iters = append(iters, 0)
	}
	sys, err := NewSystem(cfg, progs, iters)
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
	return evs
}

func TestFastForwardGrantEquivalence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
		op   isa.Op
		k    int
	}{
		{"ref-load-k1", NGMPRef(), isa.OpLoad, 1},
		{"ref-load-k30", NGMPRef(), isa.OpLoad, 30},
		{"ref-store-k5", NGMPRef(), isa.OpStore, 5},
		{"var-load-k3", NGMPVar(), isa.OpLoad, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow := grantTrace(t, tc.cfg, tc.k, tc.op, Oracle)
			fast := grantTrace(t, tc.cfg, tc.k, tc.op, Steady)
			if len(slow) != len(fast) {
				t.Fatalf("event counts differ: %d cycle-by-cycle vs %d fast-forward", len(slow), len(fast))
			}
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("grant %d differs: cycle-by-cycle %+v, fast-forward %+v", i, slow[i], fast[i])
				}
			}
		})
	}
}

func TestFastForwardMeasurementEquivalence(t *testing.T) {
	t.Parallel()
	// The full measurement harness (warmup boundary, stats reset, window
	// length, histograms, PMCs) must be bit-identical with and without
	// the fast path. Isolation runs additionally exercise the idle
	// filler cores and the nop-batch skip.
	// contenderK > 0 gives the contenders their own nop runs, so the
	// warmup-boundary ResetStats can land mid-batch on a contender core
	// (the mid-flight batch split in Core.ResetCounters).
	cfg := NGMPRef()
	run := func(e Engine, contenderK int) *Measurement {
		b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
		b.Unroll = 2
		scua, err := b.RSKNop(0, isa.OpLoad, 7)
		if err != nil {
			t.Fatal(err)
		}
		w := Workload{Scua: scua}
		if contenderK >= 0 {
			for c := 1; c < cfg.Cores; c++ {
				p, err := b.RSKNop(c, isa.OpLoad, contenderK)
				if err != nil {
					t.Fatal(err)
				}
				w.Contenders = append(w.Contenders, p)
			}
		}
		m, err := Run(cfg, w, RunOpts{
			WarmupIters: 3, MeasureIters: 10, CollectGammas: true,
			Engine: e,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, contenderK := range []int{-1, 0, 25} {
		slow := run(Oracle, contenderK)
		fast := run(Steady, contenderK)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("contenderK=%d: measurements differ:\ncycle-by-cycle: %+v\nfast-forward:   %+v", contenderK, slow, fast)
		}
	}
}

// coreReading is what a harness can read of one core between runs.
type coreReading struct {
	Ctr      cpu.Counters
	DL1, IL1 cache.Stats
}

func TestFastForwardContenderCountersAcrossReset(t *testing.T) {
	t.Parallel()
	// Every core's counters and L1 statistics — not just the scua's — must
	// match the scalar run after every RunUntil, even when a run stops or
	// ResetStats lands in the middle of a contender's instruction batch:
	// the batch pre-commits its instructions and takes its DL1 and IL1
	// hits at batch start, SyncNow takes back the share issuing after the
	// stop, and ResetCounters re-credits the post-reset remainder.
	// rsk-nop contenders batch uniform nop runs across fetch lines;
	// EEMBC-like contenders batch runs that mix DL1-hit loads with IALUs of
	// different latencies.
	cfg := NGMPRef()
	run := func(e Engine, eembc []string) []coreReading {
		b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
		b.Unroll = 2
		progs := make([]*isa.Program, cfg.Cores)
		iters := make([]uint64, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			var p *isa.Program
			var err error
			if c > 0 && eembc != nil {
				prof, ok := workload.ByName(eembc[c-1])
				if !ok {
					t.Fatalf("no profile %q", eembc[c-1])
				}
				p, err = prof.Build(c, 7)
			} else {
				p, err = b.RSKNop(c, isa.OpLoad, 20+3*c)
			}
			if err != nil {
				t.Fatal(err)
			}
			progs[c] = p
		}
		iters[0] = 160
		sys, err := NewSystem(cfg, progs, iters)
		if err != nil {
			t.Fatal(err)
		}
		sys.setEngine(e)
		var readings []coreReading
		read := func() {
			for c := 0; c < cfg.Cores; c++ {
				core := sys.Core(c)
				readings = append(readings, coreReading{core.Counters(), core.DL1().Stats(), core.IL1().Stats()})
			}
		}
		// Sweep the stops and resets across many cycle offsets so some
		// land inside a contender's batch. The EEMBC-like contenders miss
		// IL1 on every line of their first pass, which cuts their batches
		// short; the later stops find them warm, with DL1-hit loads and
		// new lines inside their batches.
		for _, stopIters := range []uint64{3, 5, 8, 13, 21, 34, 55, 89, 144} {
			sys.RunUntil(func() bool { return sys.Core(0).Iters() >= stopIters }, 1<<22)
			read()
			sys.ResetStats()
			read()
			sys.RunUntil(func() bool { return sys.Core(0).Iters() >= stopIters+2 }, 1<<22)
			read()
		}
		return readings
	}
	for _, eembc := range [][]string{nil, {"basefp", "iirflt", "aifftr"}, {"tblook", "cacheb", "pntrch"}} {
		slow := run(Oracle, eembc)
		for _, e := range []Engine{Event, Steady} {
			if fast := run(e, eembc); !reflect.DeepEqual(slow, fast) {
				for i := range slow {
					if slow[i] != fast[i] {
						t.Errorf("contenders %v, engine %d: reading %d (core %d) diverges:\ncycle-by-cycle: %+v\nfast-forward:   %+v",
							eembc, e, i, i%cfg.Cores, slow[i], fast[i])
						break
					}
				}
			}
		}
	}
}

func TestMaxCyclesExitReadsMatchOracle(t *testing.T) {
	t.Parallel()
	// A run that stops at maxCycles rather than on its predicate may have
	// jumped over idle cycles up to the limit, which the cycle-by-cycle
	// loop ticks: stall spans open there and batches still in flight must
	// read as the Oracle's, and a reset right after must split them alike.
	// An rsk:store scua keeps its store buffer full (an open stall span);
	// the EEMBC-like contenders stop mid-batch.
	cfg := NGMPRef()
	run := func(e Engine, limit uint64) []coreReading {
		b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
		progs := make([]*isa.Program, cfg.Cores)
		var err error
		for c := range progs {
			if c == 0 {
				progs[c], err = b.RSK(c, isa.OpStore)
			} else {
				prof, _ := workload.ByName([]string{"basefp", "tblook", "cacheb"}[c-1])
				progs[c], err = prof.Build(c, 3)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sys, err := NewSystem(cfg, progs, make([]uint64, cfg.Cores))
		if err != nil {
			t.Fatal(err)
		}
		sys.setEngine(e)
		var readings []coreReading
		read := func() {
			for c := 0; c < cfg.Cores; c++ {
				core := sys.Core(c)
				readings = append(readings, coreReading{core.Counters(), core.DL1().Stats(), core.IL1().Stats()})
			}
		}
		sys.RunUntil(func() bool { return false }, limit)
		read()
		sys.ResetStats()
		sys.RunUntil(func() bool { return false }, limit+97)
		read()
		return readings
	}
	for limit := uint64(20_000); limit < 20_060; limit++ {
		slow := run(Oracle, limit)
		for _, e := range []Engine{Event, Steady} {
			if fast := run(e, limit); !reflect.DeepEqual(slow, fast) {
				t.Fatalf("limit %d, engine %d: readings diverge:\ncycle-by-cycle: %+v\nfast-forward:   %+v", limit, e, slow, fast)
			}
		}
	}
}

func TestFastForwardIALUBatchEquivalence(t *testing.T) {
	t.Parallel()
	// IALU runs batch like nop runs, whatever their latencies;
	// compute-dominated EEMBC-like profiles interleave IALU(0) and
	// IALU(3), so most of their batches mix latencies. The full
	// measurement (window, requests, PMCs, per-core counters —
	// including mid-batch warmup-boundary splits) must be bit-identical
	// with and without the fast path + batching.
	cfg := NGMPRef()
	sets := workload.RandomTaskSets(3, cfg.Cores, 11)
	for si, ts := range sets {
		run := func(e Engine) *Measurement {
			progs, err := ts.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := Run(cfg, Workload{Scua: progs[0], Contenders: progs[1:]},
				RunOpts{WarmupIters: 2, MeasureIters: 6, CollectGammas: true,
					Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		slow := run(Oracle)
		fast := run(Steady)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("set %d (%v): measurements differ:\ncycle-by-cycle: %+v\nfast-forward:   %+v",
				si, ts.Names, slow, fast)
		}
	}
}

func TestFastForwardIALUGrantEquivalence(t *testing.T) {
	t.Parallel()
	// Grant-level equivalence for a mixed-latency ALU body: runs of
	// IALU(0) (IntLatency) and IALU(3) interleaved with loads, so
	// batches span latency changes and fetch lines, stop at loads that
	// miss DL1 and stop short of the loop branch. Every grant must match
	// the scalar run exactly.
	cfg := NGMPRef()
	mk := func() []*isa.Program {
		base := uint64(0x1000_0000)
		body := make([]isa.Instr, 0, 64)
		for blk := 0; blk < 4; blk++ {
			for i := 0; i < 7; i++ {
				body = append(body, isa.IALU(0))
			}
			for i := 0; i < 5; i++ {
				body = append(body, isa.IALU(3))
			}
			body = append(body, isa.Load(base+uint64(blk)*32))
		}
		body = append(body, isa.Branch())
		progs := []*isa.Program{{Name: "alurun", CodeBase: 0x4000_0000, Body: body}}
		b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
		for c := 1; c < cfg.Cores; c++ {
			p, err := b.RSK(c, isa.OpLoad)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
		}
		return progs
	}
	trace := func(e Engine) []grantEvent {
		progs := mk()
		sys, err := NewSystem(cfg, progs, []uint64{25, 0, 0, 0})
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
		return evs
	}
	slow := trace(Oracle)
	fast := trace(Steady)
	if len(slow) != len(fast) {
		t.Fatalf("event counts differ: %d cycle-by-cycle vs %d fast-forward", len(slow), len(fast))
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("grant %d differs: cycle-by-cycle %+v, fast-forward %+v", i, slow[i], fast[i])
		}
	}
}
