package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func testCfg() Config {
	c := DDR2_667()
	return c
}

func TestDDR2Defaults(t *testing.T) {
	c := DDR2_667()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.Banks != 4 || c.LineBytes != 32 {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"banks", func(c *Config) { c.Banks = 3 }, "power of two"},
		{"row", func(c *Config) { c.RowBytes = 100 }, "power of two"},
		{"line", func(c *Config) { c.LineBytes = 0 }, "power of two"},
		{"line>row", func(c *Config) { c.LineBytes = 8192 }, "larger than row"},
		{"burst", func(c *Config) { c.TBurst = 0 }, "invalid timing"},
		{"queue", func(c *Config) { c.QueueDepth = -1 }, "negative queue"},
	}
	for _, tc := range cases {
		c := testCfg()
		tc.mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSchedulerString(t *testing.T) {
	if FIFO.String() != "fifo" || FRFCFS.String() != "fr-fcfs" {
		t.Error("scheduler names")
	}
}

func TestBankRowMapping(t *testing.T) {
	c := MustNew(testCfg()) // 4 banks, 32B lines: line interleave
	if c.Bank(0) != 0 || c.Bank(32) != 1 || c.Bank(64) != 2 || c.Bank(96) != 3 || c.Bank(128) != 0 {
		t.Error("bank interleaving wrong")
	}
	// Rows advance every RowBytes*Banks of address space.
	if c.Row(0) != c.Row(127) {
		t.Error("row must be stable within one stripe")
	}
	if c.Row(0) == c.Row(uint64(testCfg().RowBytes*testCfg().Banks)) {
		t.Error("row must change across stripes")
	}
}

func TestReadLatencyRowStates(t *testing.T) {
	cfg := testCfg()
	c := MustNew(cfg)

	// Cold access: row empty → tRCD+tCL+tBurst.
	tx := &Txn{Addr: 0, OrigPort: 0}
	c.Push(tx, 0)
	c.Tick(0)
	wantCold := uint64(cfg.TRCD + cfg.TCL + cfg.TBurst)
	if tx.DataAt != wantCold {
		t.Fatalf("cold latency = %d, want %d", tx.DataAt, wantCold)
	}
	c.Tick(tx.DataAt)
	if got := c.PopReady(); got != tx {
		t.Fatal("read must surface in ready queue")
	}

	// Row hit: same row → tCL+tBurst.
	tx2 := &Txn{Addr: 128, OrigPort: 0} // same bank 0, same row
	start := tx.DataAt
	c.Push(tx2, start)
	c.Tick(start)
	if got := tx2.DataAt - start; got != uint64(cfg.TCL+cfg.TBurst) {
		t.Fatalf("row-hit latency = %d, want %d", got, cfg.TCL+cfg.TBurst)
	}

	// Row conflict: same bank, different row → tRP+tRCD+tCL+tBurst.
	conflictAddr := uint64(cfg.RowBytes * cfg.Banks) // bank 0, next row
	tx3 := &Txn{Addr: conflictAddr, OrigPort: 0}
	start = tx2.DataAt
	c.Push(tx3, start)
	c.Tick(start)
	if got := tx3.DataAt - start; got != uint64(cfg.TRP+cfg.TRCD+cfg.TCL+cfg.TBurst) {
		t.Fatalf("conflict latency = %d, want %d", got, cfg.TRP+cfg.TRCD+cfg.TCL+cfg.TBurst)
	}

	st := c.Stats()
	if st.RowEmpty != 1 || st.RowHits != 1 || st.RowConflicts != 1 {
		t.Fatalf("row stats = %+v", st)
	}
}

func TestClosePagePolicy(t *testing.T) {
	cfg := testCfg()
	cfg.OpenPage = false
	c := MustNew(cfg)
	tx := &Txn{Addr: 0}
	c.Push(tx, 0)
	c.Tick(0)
	c.Tick(tx.DataAt)
	// Second access to the same row still pays activation (row closed).
	tx2 := &Txn{Addr: 128}
	// The bank also pays tRP after auto-precharge before it is free.
	start := tx.DataAt + uint64(cfg.TRP)
	c.Push(tx2, start)
	c.Tick(start)
	if got := tx2.DataAt - start; got != uint64(cfg.TRCD+cfg.TCL+cfg.TBurst) {
		t.Fatalf("close-page second access = %d, want %d", got, cfg.TRCD+cfg.TCL+cfg.TBurst)
	}
	if c.Stats().RowHits != 0 {
		t.Fatal("close-page must never row-hit")
	}
}

func TestWritesCompleteSilently(t *testing.T) {
	c := MustNew(testCfg())
	w := &Txn{Addr: 0, Write: true}
	c.Push(w, 0)
	c.Tick(0)
	c.Tick(w.DataAt)
	if c.PopReady() != nil {
		t.Fatal("writes must not produce responses")
	}
	if c.Stats().Writes != 1 {
		t.Fatal("write must be counted")
	}
}

func TestFIFOBlocksOnBusyBank(t *testing.T) {
	c := MustNew(testCfg())
	// Two transactions to the same bank: the second must wait for the
	// first even though other banks are idle.
	t1 := &Txn{Addr: 0}
	t2 := &Txn{Addr: 128} // bank 0 again
	t3 := &Txn{Addr: 32}  // bank 1
	c.Push(t1, 0)
	c.Push(t2, 0)
	c.Push(t3, 0)
	c.Tick(0)
	if t1.DataAt == 0 {
		t.Fatal("first txn must issue")
	}
	// Channel is busy until t1.DataAt; FIFO also keeps t3 behind t2.
	c.Tick(1)
	if t2.DataAt != 0 || t3.DataAt != 0 {
		t.Fatal("FIFO must not reorder around a blocked head")
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := testCfg()
	cfg.Sched = FRFCFS
	c := MustNew(cfg)
	// Open a row in bank 0.
	warm := &Txn{Addr: 0}
	c.Push(warm, 0)
	c.Tick(0)
	done := warm.DataAt
	c.Tick(done)
	c.PopReady()
	// Queue: first a conflicting row, then a row hit. FR-FCFS serves the
	// hit first.
	conflict := &Txn{Addr: uint64(cfg.RowBytes * cfg.Banks)}
	hit := &Txn{Addr: 128}
	c.Push(conflict, done)
	c.Push(hit, done)
	c.Tick(done)
	if hit.DataAt == 0 || conflict.DataAt != 0 {
		t.Fatal("FR-FCFS must issue the row hit first")
	}
}

func TestBoundedQueue(t *testing.T) {
	cfg := testCfg()
	cfg.QueueDepth = 2
	c := MustNew(cfg)
	if !c.Push(&Txn{Addr: 0}, 0) || !c.Push(&Txn{Addr: 32}, 0) {
		t.Fatal("first two pushes must fit")
	}
	if c.Push(&Txn{Addr: 64}, 0) {
		t.Fatal("third push must be rejected")
	}
	if c.Stats().Rejected != 1 {
		t.Fatal("rejection must be counted")
	}
}

// TestDeepFIFOBacklogIssuesInOrder queues 100,000 transactions at once,
// as background L2 traffic without backpressure can, and requires the
// controller to issue them in arrival order with the same timing and
// statistics as a run that pushes each one only when the previous one
// has issued, so the queue never holds more than one. Popping the head
// must not cost the backlog's length: that made such runs quadratic.
func TestDeepFIFOBacklogIssuesInOrder(t *testing.T) {
	const n = 100_000
	addr := func(i int) uint64 { return uint64(i*7919%4096) * 32 }
	write := func(i int) bool { return i%3 == 0 }
	run := func(backlog bool) (starts []uint64, st Stats) {
		c := MustNew(testCfg())
		txns := make([]*Txn, n)
		for i := range txns {
			txns[i] = &Txn{Addr: addr(i), Write: write(i)}
		}
		pushed := 0
		if backlog {
			for _, tx := range txns {
				c.Push(tx, 0)
			}
			pushed = n
		}
		for cycle := uint64(0); ; {
			if pushed < n && c.QueueLen() == 0 {
				c.Push(txns[pushed], cycle)
				pushed++
			}
			c.Tick(cycle)
			for c.PopReady() != nil {
			}
			if pushed == n && !c.Busy() {
				break
			}
			cycle = c.NextEvent(cycle + 1)
		}
		for _, tx := range txns {
			starts = append(starts, tx.Start)
		}
		return starts, c.Stats()
	}
	deep, deepStats := run(true)
	shallow, shallowStats := run(false)
	for i := 1; i < n; i++ {
		if deep[i] <= deep[i-1] {
			t.Fatalf("txn %d issued at %d, not after txn %d at %d", i, deep[i], i-1, deep[i-1])
		}
	}
	for i := range deep {
		if deep[i] != shallow[i] {
			t.Fatalf("txn %d issued at %d from the backlog, %d one at a time", i, deep[i], shallow[i])
		}
	}
	if deepStats.MaxQueue != n || shallowStats.MaxQueue != 1 {
		t.Fatalf("MaxQueue %d and %d, want %d and 1", deepStats.MaxQueue, shallowStats.MaxQueue, n)
	}
	deepStats.MaxQueue, shallowStats.MaxQueue = 0, 0
	if deepStats != shallowStats {
		t.Fatalf("stats differ:\nbacklog:    %+v\none by one: %+v", deepStats, shallowStats)
	}
	if deepStats.Reads+deepStats.Writes != n {
		t.Fatalf("%d reads and %d writes retired, want %d in all", deepStats.Reads, deepStats.Writes, n)
	}
}

func TestBusyAndQueueLen(t *testing.T) {
	c := MustNew(testCfg())
	if c.Busy() {
		t.Fatal("fresh controller must be idle")
	}
	tx := &Txn{Addr: 0}
	c.Push(tx, 0)
	if !c.Busy() || c.QueueLen() != 1 {
		t.Fatal("queued txn must make controller busy")
	}
	c.Tick(0)
	if c.QueueLen() != 0 || !c.Busy() {
		t.Fatal("issued txn must leave inflight state busy")
	}
	c.Tick(tx.DataAt)
	if !c.Busy() {
		t.Fatal("ready response still counts as busy")
	}
	c.PopReady()
	if c.Busy() {
		t.Fatal("drained controller must be idle")
	}
}

func TestPeekReady(t *testing.T) {
	c := MustNew(testCfg())
	if c.PeekReady() != nil || c.PopReady() != nil {
		t.Fatal("empty ready queue")
	}
	tx := &Txn{Addr: 0}
	c.Push(tx, 0)
	c.Tick(0)
	c.Tick(tx.DataAt)
	if c.PeekReady() != tx {
		t.Fatal("peek must see the completed read")
	}
	if c.PeekReady() != tx {
		t.Fatal("peek must not consume")
	}
	c.PopReady()
	if c.PeekReady() != nil {
		t.Fatal("pop must consume")
	}
}

func TestTxnLatency(t *testing.T) {
	tx := &Txn{Arrive: 10, DataAt: 35}
	if tx.Latency() != 25 {
		t.Fatal("latency arithmetic")
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(testCfg())
	tx := &Txn{Addr: 0}
	c.Push(tx, 0)
	c.Tick(0)
	c.ResetStats()
	if c.Stats().RowEmpty != 0 {
		t.Fatal("ResetStats must zero counters")
	}
}

// TestPropReadsAlwaysComplete: every pushed read eventually surfaces in the
// ready queue, in bounded time, for arbitrary address mixes under both
// schedulers.
func TestPropReadsAlwaysComplete(t *testing.T) {
	for _, sched := range []Scheduler{FIFO, FRFCFS} {
		sched := sched
		f := func(addrs []uint16) bool {
			if len(addrs) > 64 {
				addrs = addrs[:64]
			}
			cfg := testCfg()
			cfg.Sched = sched
			c := MustNew(cfg)
			want := 0
			for i, a := range addrs {
				c.Push(&Txn{Addr: uint64(a) &^ 31, OrigPort: i}, 0)
				want++
			}
			got := 0
			for cycle := uint64(0); cycle < 100000 && got < want; cycle++ {
				c.Tick(cycle)
				for c.PopReady() != nil {
					got++
				}
			}
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", sched, err)
		}
	}
}

// TestPropChannelSerialization: transactions never overlap on the data
// channel: issue times are spaced by at least TBurst.
func TestPropChannelSerialization(t *testing.T) {
	f := func(addrs []uint16) bool {
		if len(addrs) > 32 {
			addrs = addrs[:32]
		}
		cfg := testCfg()
		c := MustNew(cfg)
		var txns []*Txn
		for _, a := range addrs {
			tx := &Txn{Addr: uint64(a) &^ 31}
			txns = append(txns, tx)
			c.Push(tx, 0)
		}
		for cycle := uint64(0); cycle < 50000; cycle++ {
			c.Tick(cycle)
			for c.PopReady() != nil {
			}
			if !c.Busy() {
				break
			}
		}
		// All data completions must be spaced ≥ TBurst apart.
		var ends []uint64
		for _, tx := range txns {
			if tx.DataAt == 0 {
				return false // never issued
			}
			ends = append(ends, tx.DataAt)
		}
		for i := range ends {
			for j := range ends {
				if i != j && absDiff(ends[i], ends[j]) < uint64(cfg.TBurst) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
