package cpu

import (
	"fmt"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/isa"
)

// fakePort records submissions and lets tests complete them manually.
// History entries are copies: the core reuses its request object across
// submissions (see Core.req), exactly like the real bus, which drops its
// reference at completion.
type fakePort struct {
	pending *bus.Request
	history []bus.Request
}

func (p *fakePort) Free() bool { return p.pending == nil }

func (p *fakePort) Submit(r *bus.Request, cycle uint64) {
	if p.pending != nil {
		panic("fakePort: double submit")
	}
	r.Ready = cycle
	p.pending = r
	p.history = append(p.history, *r)
}

// SubmitAt records a deferred submission (see cpu.Port). The fake keeps it
// directly as the pending request — Ready carries the future ready cycle,
// and the test harnesses serve requests relative to Ready, never relative
// to when the call happened.
func (p *fakePort) SubmitAt(r *bus.Request, ready uint64) {
	if p.pending != nil {
		panic("fakePort: double submit")
	}
	r.Ready = ready
	p.pending = r
	p.history = append(p.history, *r)
}

func (p *fakePort) complete() *bus.Request {
	r := p.pending
	p.pending = nil
	return r
}

func testCacheCfg(name string) cache.Config {
	return cache.Config{
		Name: name, SizeBytes: 1 << 10, Ways: 2, LineBytes: 32,
		Policy: cache.LRU, Write: cache.WriteThrough, Latency: 1,
	}
}

func newTestCore(t *testing.T, prog *isa.Program, maxIters uint64, dl1Lat int) (*Core, *fakePort) {
	t.Helper()
	port := &fakePort{}
	cfg := Config{
		ID:               0,
		DL1:              cache.MustNew(testCacheCfg("DL1")),
		IL1:              cache.MustNew(testCacheCfg("IL1")),
		DL1Latency:       dl1Lat,
		IL1Latency:       1,
		NopLatency:       1,
		IntLatency:       1,
		BranchLatency:    1,
		StoreBufferDepth: 2,
	}
	c, err := New(cfg, prog, port, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	return c, port
}

// runCycles ticks the core for n cycles, completing any pending ifetch at
// the first cycle boundary after its ready cycle (tests that want fetch
// misses use the port directly instead). Deferred submissions surface in
// pending ahead of their ready cycle, so the guard is Ready-relative.
func runCycles(c *Core, p *fakePort, n uint64, serveFetches bool) uint64 {
	var cyc uint64
	for ; cyc < n; cyc++ {
		if serveFetches && p.pending != nil && p.pending.Kind == bus.KindIFetch && cyc > p.pending.Ready {
			r := p.complete()
			_ = r
			c.IFetchDone(cyc)
		}
		c.Tick(cyc)
	}
	return cyc
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		ID: 0, DL1: cache.MustNew(testCacheCfg("d")), IL1: cache.MustNew(testCacheCfg("i")),
		DL1Latency: 1, IL1Latency: 1, NopLatency: 1, IntLatency: 1, BranchLatency: 1,
		StoreBufferDepth: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.ID = -1
	if bad.Validate() == nil {
		t.Error("negative id")
	}
	bad = good
	bad.DL1 = nil
	if bad.Validate() == nil {
		t.Error("nil cache")
	}
	bad = good
	bad.DL1Latency = 0
	if bad.Validate() == nil {
		t.Error("zero DL1 latency")
	}
	bad = good
	bad.NopLatency = 0
	if bad.Validate() == nil {
		t.Error("zero nop latency")
	}
	bad = good
	bad.StoreBufferDepth = 0
	if bad.Validate() == nil {
		t.Error("zero store buffer")
	}
}

func TestNopLoopTiming(t *testing.T) {
	// 3 nops + branch, all 1 cycle: one iteration per 4 cycles after the
	// initial fetch fill.
	prog := &isa.Program{
		Name: "nops", CodeBase: 0x1000,
		Body: []isa.Instr{isa.Nop(), isa.Nop(), isa.Nop(), isa.Branch()},
	}
	c, p := newTestCore(t, prog, 10, 1)
	runCycles(c, p, 100, true)
	if !c.Done() {
		t.Fatalf("core did not finish: iters=%d", c.Iters())
	}
	ctr := c.Counters()
	if ctr.Nops != 30 || ctr.Branches != 10 || ctr.Instrs != 40 {
		t.Fatalf("counters: %+v", ctr)
	}
}

func TestLoadHitTiming(t *testing.T) {
	// Loads hitting DL1 retire at DL1 latency without touching the bus.
	prog := &isa.Program{
		Name: "hits", CodeBase: 0x1000,
		Setup: []isa.Instr{isa.Load(0x40)},
		Body:  []isa.Instr{isa.Load(0x40), isa.Branch()},
	}
	c, p := newTestCore(t, prog, 5, 1)
	for cyc := uint64(0); cyc < 200 && !c.Done(); cyc++ {
		if p.pending != nil {
			switch p.pending.Kind {
			case bus.KindIFetch:
				if cyc > p.pending.Ready {
					p.complete()
					c.IFetchDone(cyc)
				}
			case bus.KindLoad:
				if cyc >= p.pending.Ready+9 {
					p.complete()
					c.LoadDone(cyc)
				}
			}
		}
		c.Tick(cyc)
	}
	if !c.Done() {
		t.Fatalf("core did not finish: iters=%d", c.Iters())
	}
	// All body loads hit.
	loads := 0
	for _, r := range p.history {
		if r.Kind == bus.KindLoad {
			loads++
		}
	}
	if loads != 1 {
		t.Fatalf("body loads reached the bus: %d total load requests, want 1 (setup only)", loads)
	}
}

func TestLoadMissInjectionTime(t *testing.T) {
	// The paper's δ contract: with k nops between missing loads and
	// DL1 latency L, the next bus request becomes ready exactly
	// L + k cycles after the previous data return.
	for _, tc := range []struct {
		dl1Lat, nops int
	}{{1, 0}, {1, 3}, {4, 0}, {4, 5}, {2, 7}} {
		// Two conflicting lines guarantee every load misses
		// (1-line working set per set with stride over set span of a
		// 2-way cache needs 3 lines; use 3).
		setSpan := uint64(16 * 32) // sets * line of testCacheCfg
		body := []isa.Instr{}
		for _, a := range []uint64{0, setSpan, 2 * setSpan} {
			body = append(body, isa.Load(a))
			for i := 0; i < tc.nops; i++ {
				body = append(body, isa.Nop())
			}
		}
		body = append(body, isa.Branch())
		prog := &isa.Program{Name: "miss", CodeBase: 0x1000, Body: body}
		c, p := newTestCore(t, prog, 4, tc.dl1Lat)

		var completions []uint64
		var readies []uint64
		for cyc := uint64(0); cyc < 2000 && !c.Done(); cyc++ {
			if p.pending != nil {
				switch p.pending.Kind {
				case bus.KindIFetch:
					if cyc > p.pending.Ready {
						p.complete()
						c.IFetchDone(cyc)
					}
				case bus.KindLoad:
					// Serve the load with a fixed 9-cycle
					// latency.
					if cyc >= p.pending.Ready+9 {
						readies = append(readies, p.pending.Ready)
						p.complete()
						c.LoadDone(cyc)
						completions = append(completions, cyc)
					}
				}
			}
			c.Tick(cyc)
		}
		if len(readies) < 6 {
			t.Fatalf("dl1=%d k=%d: too few load requests (%d)", tc.dl1Lat, tc.nops, len(readies))
		}
		// Check steady-state δ for consecutive loads: inner gaps are
		// exactly DL1lat + k; boundary gaps add the 1-cycle branch;
		// the first iteration may add instruction-fetch fills.
		// Steady state only: the first iteration's gaps include
		// instruction-fetch fills, so inspect the second half.
		want := uint64(tc.dl1Lat + tc.nops)
		half := len(readies) / 2
		okCount, boundaryCount, otherCount := 0, 0, 0
		for i := half; i < len(readies); i++ {
			switch readies[i] - completions[i-1] {
			case want:
				okCount++
			case want + 1:
				boundaryCount++
			default:
				otherCount++
			}
		}
		// With 3 loads per iteration, at least half the steady-state
		// gaps are the inner injection time; the rest are iteration
		// boundaries (+1 branch cycle). Nothing else is allowed.
		if otherCount != 0 {
			t.Errorf("dl1=%d k=%d: %d steady-state gaps outside {δ, δ+1}", tc.dl1Lat, tc.nops, otherCount)
		}
		if okCount*2 < okCount+boundaryCount {
			t.Errorf("dl1=%d k=%d: only %d/%d steady gaps equal δ=%d",
				tc.dl1Lat, tc.nops, okCount, okCount+boundaryCount, want)
		}
	}
}

func TestStoreBufferedNoStall(t *testing.T) {
	// Stores with room in the buffer retire at DL1 latency; the bus
	// drain happens in the background.
	prog := &isa.Program{
		Name: "stores", CodeBase: 0x1000,
		Body: []isa.Instr{isa.Store(0x40), isa.Nop(), isa.Nop(), isa.Nop(), isa.Branch()},
	}
	c, p := newTestCore(t, prog, 3, 1)
	// Run past completion so the buffered stores finish draining: the
	// pipeline retires before the write traffic does.
	for cyc := uint64(0); cyc < 300; cyc++ {
		if p.pending != nil {
			switch p.pending.Kind {
			case bus.KindIFetch:
				if cyc > p.pending.Ready {
					p.complete()
					c.IFetchDone(cyc)
				}
			case bus.KindStore:
				if cyc >= p.pending.Ready+9 {
					p.complete()
					c.StoreDrained(cyc)
				}
			}
		}
		c.Tick(cyc)
	}
	if !c.Done() {
		t.Fatal("store loop did not finish")
	}
	if !c.StoreBuffer().Empty() {
		t.Fatal("store buffer must drain after completion")
	}
	if c.Counters().SBStallCycles != 0 {
		t.Fatalf("unexpected store stalls: %d", c.Counters().SBStallCycles)
	}
	stores := 0
	for _, r := range p.history {
		if r.Kind == bus.KindStore {
			stores++
		}
	}
	if stores != 3 {
		t.Fatalf("drained stores = %d, want 3 (one per iteration)", stores)
	}
}

func TestStoreStallsWhenBufferFull(t *testing.T) {
	// Back-to-back stores with a slow drain fill the 2-entry buffer and
	// stall the pipeline.
	prog := &isa.Program{
		Name: "flood", CodeBase: 0x1000,
		Body: []isa.Instr{isa.Store(0x40), isa.Branch()},
	}
	c, p := newTestCore(t, prog, 20, 1)
	for cyc := uint64(0); cyc < 3000 && !c.Done(); cyc++ {
		if p.pending != nil {
			switch p.pending.Kind {
			case bus.KindIFetch:
				if cyc > p.pending.Ready {
					p.complete()
					c.IFetchDone(cyc)
				}
			case bus.KindStore:
				if cyc >= p.pending.Ready+30 { // slow drain
					p.complete()
					c.StoreDrained(cyc)
				}
			}
		}
		c.Tick(cyc)
	}
	if !c.Done() {
		t.Fatal("did not finish")
	}
	if c.Counters().SBStallCycles == 0 {
		t.Fatal("expected store-buffer stalls with slow drain")
	}
}

func TestIFetchMissOnNewLine(t *testing.T) {
	// A body spanning two instruction lines triggers exactly two fetch
	// misses on the first iteration and none after.
	body := make([]isa.Instr, 0, 16)
	for i := 0; i < 15; i++ {
		body = append(body, isa.Nop())
	}
	body = append(body, isa.Branch()) // 16 instrs = 64B = 2 lines
	prog := &isa.Program{Name: "2lines", CodeBase: 0x2000, Body: body}
	c, p := newTestCore(t, prog, 5, 1)
	fetches := 0
	for cyc := uint64(0); cyc < 500 && !c.Done(); cyc++ {
		if p.pending != nil && p.pending.Kind == bus.KindIFetch && cyc > p.pending.Ready {
			fetches++
			p.complete()
			c.IFetchDone(cyc)
		}
		c.Tick(cyc)
	}
	if fetches != 2 {
		t.Fatalf("fetch misses = %d, want 2", fetches)
	}
	if got := c.IL1().Stats().ReadMisses; got != 2 {
		t.Fatalf("IL1 misses = %d, want 2", got)
	}
}

func TestContenderRunsForever(t *testing.T) {
	prog := &isa.Program{Name: "inf", CodeBase: 0x1000, Body: []isa.Instr{isa.Nop(), isa.Branch()}}
	c, p := newTestCore(t, prog, 0, 1)
	runCycles(c, p, 1000, true)
	if c.Done() {
		t.Fatal("unbounded core must never be done")
	}
	if c.Iters() < 400 {
		t.Fatalf("unbounded core made too little progress: %d iters", c.Iters())
	}
}

func TestIALULatencyOverride(t *testing.T) {
	prog := &isa.Program{
		Name: "alu", CodeBase: 0x1000,
		Body: []isa.Instr{isa.IALU(5), isa.Branch()},
	}
	c, p := newTestCore(t, prog, 4, 1)
	var finished uint64
	for cyc := uint64(0); cyc < 200; cyc++ {
		if p.pending != nil && p.pending.Kind == bus.KindIFetch && cyc > p.pending.Ready {
			p.complete()
			c.IFetchDone(cyc)
		}
		c.Tick(cyc)
		if c.Done() && finished == 0 {
			finished = cyc
		}
	}
	if finished == 0 {
		t.Fatal("did not finish")
	}
	// 4 iterations × (5 + 1) cycles plus the fetch fill ≈ 24-27 cycles.
	if finished > 30 {
		t.Fatalf("ALU latency not honored: finished at %d", finished)
	}
	if c.Counters().ALUs != 4 {
		t.Fatalf("ALU count = %d", c.Counters().ALUs)
	}
}

func TestSetupRunsOnce(t *testing.T) {
	prog := &isa.Program{
		Name: "setup", CodeBase: 0x1000,
		Setup: []isa.Instr{isa.Nop(), isa.Nop()},
		Body:  []isa.Instr{isa.Nop(), isa.Branch()},
	}
	c, p := newTestCore(t, prog, 3, 1)
	runCycles(c, p, 100, true)
	if !c.Done() {
		t.Fatal("did not finish")
	}
	// 2 setup nops + 3 × (nop + branch) = 8 instructions.
	if got := c.Counters().Instrs; got != 8 {
		t.Fatalf("instr count = %d, want 8", got)
	}
}

func TestResetCountersPreservesIters(t *testing.T) {
	prog := &isa.Program{Name: "r", CodeBase: 0x1000, Body: []isa.Instr{isa.Nop(), isa.Branch()}}
	c, p := newTestCore(t, prog, 0, 1)
	runCycles(c, p, 50, true)
	before := c.Iters()
	if before == 0 {
		t.Fatal("no progress")
	}
	c.ResetCounters(10_000)
	if c.Iters() != before {
		t.Fatal("ResetCounters must preserve iteration progress")
	}
	if c.Counters().Instrs != 0 {
		t.Fatal("ResetCounters must zero instruction counts")
	}
}

func TestLoadWaitsForPortBehindStoreDrain(t *testing.T) {
	// A store drain in flight holds the core's single bus port; a
	// following load miss must wait for it (counted as port stall
	// cycles) and still complete.
	setSpan := uint64(16 * 32)
	prog := &isa.Program{
		Name: "st-then-ld", CodeBase: 0x1000,
		Body: []isa.Instr{
			isa.Store(0x40),
			isa.Load(setSpan),     // conflicting lines: always miss
			isa.Load(2 * setSpan), // (3 lines > 2 ways)
			isa.Load(3 * setSpan),
			isa.Branch(),
		},
	}
	c, p := newTestCore(t, prog, 5, 1)
	for cyc := uint64(0); cyc < 3000 && !c.Done(); cyc++ {
		if p.pending != nil {
			switch p.pending.Kind {
			case bus.KindIFetch:
				if cyc > p.pending.Ready {
					p.complete()
					c.IFetchDone(cyc)
				}
			case bus.KindStore:
				// Slow drain so the load demonstrably waits.
				if cyc >= p.pending.Ready+25 {
					p.complete()
					c.StoreDrained(cyc)
				}
			case bus.KindLoad:
				if cyc >= p.pending.Ready+9 {
					p.complete()
					c.LoadDone(cyc)
				}
			}
		}
		c.Tick(cyc)
	}
	if !c.Done() {
		t.Fatalf("did not finish: iters=%d", c.Iters())
	}
	if c.Counters().PortStallCycles == 0 {
		t.Error("load behind a slow store drain must record port stalls")
	}
	if c.Counters().Loads != 15 || c.Counters().Stores != 5 {
		t.Errorf("counters: %+v", c.Counters())
	}
}

func TestNewValidations(t *testing.T) {
	prog := &isa.Program{Name: "p", CodeBase: 0x1000, Body: []isa.Instr{isa.Nop()}}
	cfg := Config{
		ID: 0, DL1: cache.MustNew(testCacheCfg("d")), IL1: cache.MustNew(testCacheCfg("i")),
		DL1Latency: 1, IL1Latency: 1, NopLatency: 1, IntLatency: 1, BranchLatency: 1,
		StoreBufferDepth: 1,
	}
	if _, err := New(cfg, prog, nil, 0); err == nil {
		t.Error("nil port must fail")
	}
	if _, err := New(cfg, &isa.Program{Name: "bad"}, &fakePort{}, 0); err == nil {
		t.Error("invalid program must fail")
	}
	bad := cfg
	bad.DL1Latency = 0
	if _, err := New(bad, prog, &fakePort{}, 0); err == nil {
		t.Error("invalid config must fail")
	}
}

// drivenCore advances one core cycle by cycle over a fakePort that serves
// instruction fetches the cycle after their ready cycle and loads lbus
// (9) cycles after it. A batching core is ticked only when it is due — at
// its registered wake or when a completion arrives — as the event engine
// ticks it; the reference core (batching off) is ticked every cycle, as
// the Oracle engine does. Either way the read point then moves to the
// cycle, as the engine's SyncNow does when a run stops.
type drivenCore struct {
	c     *Core
	p     *fakePort
	wake  uint64
	mixed int // batches issued holding more than one latency
}

func newDrivenCore(t *testing.T, prog *isa.Program, maxIters uint64, batching bool) *drivenCore {
	t.Helper()
	port := &fakePort{}
	c, err := New(Config{
		ID:               0,
		DL1:              cache.MustNew(testCacheCfg("DL1")),
		IL1:              cache.MustNew(testCacheCfg("IL1")),
		DL1Latency:       2,
		IL1Latency:       1,
		NopLatency:       1,
		IntLatency:       2,
		BranchLatency:    3,
		StoreBufferDepth: 2,
	}, prog, port, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	c.SetNopBatching(batching)
	return &drivenCore{c: c, p: port}
}

func (d *drivenCore) step(cycle uint64) {
	due := d.c.noBatch || cycle >= d.wake
	if r := d.p.pending; r != nil {
		switch {
		case r.Kind == bus.KindIFetch && cycle > r.Ready:
			d.p.complete()
			d.c.IFetchDone(cycle)
			due = true
		case r.Kind == bus.KindLoad && cycle >= r.Ready+9:
			d.p.complete()
			d.c.LoadDone(cycle)
			due = true
		}
	}
	if due {
		d.c.Tick(cycle)
		d.wake = d.c.NextEvent(cycle + 1)
		if d.c.batchStart == cycle && cycle < d.c.batchEnd {
			lat := func(in isa.Instr) uint64 {
				t, _ := d.c.add(runTally{}, in)
				return t.cycles
			}
			run := d.c.seq()[d.c.batchPC:d.c.pc]
			for _, in := range run[1:] {
				if lat(in) != lat(run[0]) {
					d.mixed++
					break
				}
			}
		}
	}
	d.c.SyncNow(cycle)
}

// mixedProgram mixes nops, IALUs of latencies 0 (the core default) to 5
// and branches with DL1-hit loads, behind a setup sequence whose loads
// warm DL1. Setup is 10 instructions, so the body starts mid-line and
// both sequences cross fetch lines inside runs of non-memory
// instructions; a branch also sits mid-body.
func mixedProgram() *isa.Program {
	return &isa.Program{
		Name: "mixed", CodeBase: 0x1000,
		Setup: []isa.Instr{
			isa.Load(0x40), isa.Load(0x80), isa.Nop(), isa.IALU(4), isa.Nop(),
			isa.IALU(0), isa.IALU(2), isa.Nop(), isa.Nop(), isa.IALU(5),
		},
		Body: []isa.Instr{
			isa.Nop(), isa.IALU(0), isa.IALU(1), isa.IALU(2), isa.Nop(), isa.IALU(3),
			isa.IALU(4), isa.IALU(5), isa.Branch(), isa.Nop(), isa.Nop(), isa.Load(0x40),
			isa.IALU(3), isa.IALU(0), isa.Nop(), isa.IALU(5), isa.Nop(), isa.IALU(1),
			isa.Load(0x84), isa.IALU(2), isa.IALU(2), isa.Nop(), isa.IALU(4), isa.Branch(),
			isa.IALU(0), isa.Nop(), isa.Nop(), isa.IALU(3), isa.Branch(),
		},
	}
}

// sameReadings fails t unless both cores read the same counters and L1
// statistics.
func sameReadings(t *testing.T, at string, bat, ref *Core) {
	t.Helper()
	if b, r := bat.Counters(), ref.Counters(); b != r {
		t.Fatalf("%s: batched counters %+v, reference %+v", at, b, r)
	}
	if b, r := bat.DL1().Stats(), ref.DL1().Stats(); b != r {
		t.Fatalf("%s: batched DL1 %+v, reference %+v", at, b, r)
	}
	if b, r := bat.IL1().Stats(), ref.IL1().Stats(); b != r {
		t.Fatalf("%s: batched IL1 %+v, reference %+v", at, b, r)
	}
}

// TestMixedBatchCountersMatchReference runs the mixed program batched and
// one instruction per Tick and compares the counters and L1 statistics at
// every cycle: a batch pre-commits every instruction it holds and takes
// its L1 hits at once, and Counters and SyncNow must take back exactly
// those that serially would issue after the read point.
func TestMixedBatchCountersMatchReference(t *testing.T) {
	prog := mixedProgram()
	bat := newDrivenCore(t, prog, 6, true)
	ref := newDrivenCore(t, prog, 6, false)
	var cyc uint64
	for ; cyc < 5000 && !(bat.c.Done() && ref.c.Done()); cyc++ {
		bat.step(cyc)
		ref.step(cyc)
		sameReadings(t, fmt.Sprintf("cycle %d", cyc), bat.c, ref.c)
		if bat.c.Done() != ref.c.Done() {
			t.Fatalf("cycle %d: batched done=%v, reference done=%v", cyc, bat.c.Done(), ref.c.Done())
		}
	}
	if !bat.c.Done() {
		t.Fatalf("program did not finish in %d cycles", cyc)
	}
	if bat.mixed == 0 {
		t.Fatal("no batch held more than one latency: the test exercises nothing")
	}
}

// TestMixedBatchResetAtEveryOffset resets the counters at every cycle of
// the mixed program's first 250 cycles, so resets land at each offset
// inside its mixed batches (setup and body), and checks that the batched
// core's re-credited window matches the reference's at every later cycle.
func TestMixedBatchResetAtEveryOffset(t *testing.T) {
	prog := mixedProgram()
	midBatch := 0
	for reset := uint64(1); reset < 250; reset++ {
		bat := newDrivenCore(t, prog, 0, true)
		ref := newDrivenCore(t, prog, 0, false)
		for cyc := uint64(0); cyc < reset; cyc++ {
			bat.step(cyc)
			ref.step(cyc)
		}
		if reset < bat.c.batchEnd {
			midBatch++
		}
		bat.c.ResetCounters(reset)
		ref.c.ResetCounters(reset)
		for cyc := reset; cyc < reset+120; cyc++ {
			bat.step(cyc)
			ref.step(cyc)
			sameReadings(t, fmt.Sprintf("reset at %d, cycle %d", reset, cyc), bat.c, ref.c)
		}
	}
	if midBatch < 50 {
		t.Fatalf("only %d resets landed inside a batch", midBatch)
	}
}

// TestBatchStops pins where the batch one Tick issues ends, on hand-built
// programs whose first lines sit warm in IL1 and whose hit address sits
// warm in DL1: before a store, a DL1-missing load, the first instruction
// of an IL1-missing line (a load there included, which must leave DL1
// untouched) and the sequence's last instruction, after crossing IL1-hit
// lines and DL1-hit loads on the way. A reference core ticked every cycle
// with batching off gives the cycle the stopping instruction issues at,
// which must be the batch's nextFree, and the counters and L1 statistics
// of every instruction before it.
func TestBatchStops(t *testing.T) {
	const hit, hit2, miss = 0x40, 0x84, 0x2000
	alu, alu3, nop, br := isa.IALU(0), isa.IALU(3), isa.Nop(), isa.Branch()
	ld := isa.Load
	cases := []struct {
		name  string
		body  []isa.Instr
		lines int // lines of the body warm in IL1 (eight instructions each)
		stop  int // index of the instruction the batch stops before
	}{
		{"store", []isa.Instr{alu3, ld(hit), nop, alu, isa.Store(hit), nop, br}, 1, 4},
		{"DL1 miss", []isa.Instr{alu, ld(hit), nop, ld(miss), alu3, br}, 1, 3},
		{"IL1 miss", []isa.Instr{
			alu, alu3, nop, alu, ld(hit), alu, alu, nop,
			alu3, alu, nop, ld(hit2), alu, alu, nop, alu,
			alu, alu, br}, 2, 16},
		{"load on an IL1-missing line", []isa.Instr{
			alu, alu3, nop, alu, alu, alu, alu, nop,
			ld(hit), alu, br}, 1, 8},
		{"last instruction", []isa.Instr{
			nop, alu3, nop, nop, alu, nop, nop, nop,
			ld(hit), alu, ld(hit2), nop, br}, 2, 12},
		{"across lines and loads", []isa.Instr{
			alu, alu3, ld(hit), nop, nop, alu, alu3, nop,
			ld(hit2), alu, alu, alu3, nop, nop, alu, nop,
			alu, ld(hit), ld(hit2), nop, alu3, alu, isa.Store(hit2), alu,
			br}, 3, 22},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := &isa.Program{Name: tc.name, CodeBase: 0x1000, Body: tc.body}
			core := func(batching bool) *Core {
				c, _ := newTestCore(t, prog, 0, 2)
				for l := 0; l < tc.lines; l++ {
					c.cfg.IL1.Access(prog.CodeBase+uint64(l)*32, false, 0)
				}
				c.cfg.DL1.Access(hit, false, 0)
				c.cfg.DL1.Access(hit2, false, 0)
				c.cfg.IL1.ResetStats()
				c.cfg.DL1.ResetStats()
				c.SetNopBatching(batching)
				return c
			}
			bat, ref := core(true), core(false)
			bat.Tick(0)
			for cyc := uint64(0); ref.pc != tc.stop; cyc++ {
				if cyc > 1000 {
					t.Fatalf("reference never reached instruction %d", tc.stop)
				}
				ref.Tick(cyc)
			}
			if bat.pc != tc.stop {
				t.Fatalf("batch stopped before instruction %d, want %d", bat.pc, tc.stop)
			}
			if bat.st != sRun || bat.nextFree != ref.nextFree {
				t.Fatalf("batch next issues at %d (state %d), reference at %d", bat.nextFree, bat.st, ref.nextFree)
			}
			if bat.ctr != ref.ctr {
				t.Errorf("batch committed %+v, reference %+v", bat.ctr, ref.ctr)
			}
			if b, r := bat.cfg.DL1.Stats(), ref.cfg.DL1.Stats(); b != r {
				t.Errorf("DL1 stats %+v, reference %+v", b, r)
			}
			if b, r := bat.cfg.IL1.Stats(), ref.cfg.IL1.Stats(); b != r {
				t.Errorf("IL1 stats %+v, reference %+v", b, r)
			}
		})
	}
}
