// Package mem models the on-chip memory controller and its DDR2 SDRAM
// backend, standing in for the DRAMsim2 model the paper's simulator used.
//
// The model captures what matters for contention studies: per-bank row
// state (open-page or close-page policy), activation/precharge/CAS timing,
// a shared data channel serialized at burst granularity, and FIFO or
// FR-FCFS transaction scheduling. The paper's rsk experiments never reach
// memory (all L2 hits); the EEMBC-like workloads and the L2-miss kernels do.
package mem

import (
	"fmt"
	"math/bits"
)

// Scheduler selects the transaction scheduling policy.
type Scheduler uint8

const (
	// FIFO serves transactions strictly in arrival order (the
	// time-predictable choice for real-time systems).
	FIFO Scheduler = iota
	// FRFCFS prefers row hits over older transactions (first-ready,
	// first-come first-served) — the throughput-oriented COTS policy.
	FRFCFS
)

// String returns the scheduler name.
func (s Scheduler) String() string {
	if s == FRFCFS {
		return "fr-fcfs"
	}
	return "fifo"
}

// Config describes the memory controller and DRAM timing, expressed in core
// clock cycles. The defaults in DDR2_667 approximate a one-rank 2GB DDR2-667
// part with 4 banks and a 64-bit bus bursting 4 transfers (32B per access,
// one cache line), as in the paper's setup, seen from a 200MHz core.
type Config struct {
	// Banks is the number of DRAM banks (power of two).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// LineBytes is the transfer granularity (one cache line).
	LineBytes int
	// TRCD is the activate-to-CAS delay in core cycles.
	TRCD int
	// TCL is the CAS latency in core cycles.
	TCL int
	// TRP is the precharge delay in core cycles.
	TRP int
	// TBurst is the data-burst occupancy of the channel in core cycles.
	TBurst int
	// OpenPage keeps rows open after access (row-hit friendly); when
	// false every access auto-precharges (close-page, predictable).
	OpenPage bool
	// Sched selects FIFO or FRFCFS scheduling.
	Sched Scheduler
	// QueueDepth bounds the transaction queue; 0 means unbounded.
	QueueDepth int
}

// DDR2_667 returns the paper's memory configuration approximated in 200MHz
// core cycles: tRCD=15ns→3, tCL=15ns→3, tRP=15ns→3, burst 4×64bit at
// 667MT/s ≈ 6ns→2.
func DDR2_667() Config {
	return Config{
		Banks:     4,
		RowBytes:  4096,
		LineBytes: 32,
		TRCD:      3,
		TCL:       3,
		TRP:       3,
		TBurst:    2,
		OpenPage:  true,
		Sched:     FIFO,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("mem: banks %d not a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("mem: row size %d not a positive power of two", c.RowBytes)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d not a positive power of two", c.LineBytes)
	}
	if c.LineBytes > c.RowBytes {
		return fmt.Errorf("mem: line %d larger than row %d", c.LineBytes, c.RowBytes)
	}
	if c.TRCD < 0 || c.TCL < 0 || c.TRP < 0 || c.TBurst < 1 {
		return fmt.Errorf("mem: invalid timing tRCD=%d tCL=%d tRP=%d tBurst=%d", c.TRCD, c.TCL, c.TRP, c.TBurst)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("mem: negative queue depth %d", c.QueueDepth)
	}
	return nil
}

// Txn is one memory transaction (a line read or write).
type Txn struct {
	// Addr is the line-aligned address.
	Addr uint64
	// Write distinguishes writes (completed silently) from reads (which
	// produce a response for OrigPort).
	Write bool
	// OrigPort is the core the read response must be routed back to.
	OrigPort int
	// Tag carries caller context.
	Tag uint64
	// Arrive, Start and DataAt record the transaction's queue arrival,
	// issue and completion cycles.
	Arrive uint64
	Start  uint64
	DataAt uint64

	// pooled marks transactions acquired from the controller's freelist
	// (AcquireTxn); only those are recycled, so caller-owned Txns pushed
	// directly remain untouched after completion.
	pooled bool
}

// Latency returns the total queue+service latency of a completed
// transaction.
func (t *Txn) Latency() uint64 { return t.DataAt - t.Arrive }

// Stats aggregates controller activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowEmpty     uint64
	RowConflicts uint64
	ChannelBusy  uint64
	MaxQueue     int
	Rejected     uint64
}

type bank struct {
	openRow int64 // -1 when precharged
	freeAt  uint64
}

// Controller is the memory controller front-end plus the DRAM bank model.
// Like the rest of the simulator it is single-goroutine and deterministic.
type Controller struct {
	cfg   Config
	banks []bank
	// queue[qhead:] holds the queued transactions in arrival order
	// (pending); remove keeps issuing from a deep backlog O(1).
	queue    []*Txn
	qhead    int
	inflight []*Txn
	ready    []*Txn
	free     []*Txn
	chanFree uint64
	stats    Stats

	bankShift uint
	bankMask  uint64
	rowShift  uint
}

// New builds a controller from cfg.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks),
		bankShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		bankMask:  uint64(cfg.Banks - 1),
	}
	c.rowShift = c.bankShift + uint(bits.TrailingZeros(uint(cfg.Banks)))
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c, nil
}

// MustNew builds a controller and panics on configuration errors.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics.
func (c *Controller) ResetStats() { c.stats = Stats{} }

// Bank returns the bank index addr maps to (line interleaving).
func (c *Controller) Bank(addr uint64) int { return int((addr >> c.bankShift) & c.bankMask) }

// Row returns the row index addr maps to within its bank.
func (c *Controller) Row(addr uint64) int64 {
	return int64(addr >> c.rowShift / uint64(c.cfg.RowBytes/c.cfg.LineBytes))
}

// AcquireTxn returns a zeroed transaction from the controller's freelist
// (or a new one), for callers that push transactions at high rate. Writes
// are recycled automatically when they retire; completed reads return to
// the pool when the caller hands them back with Recycle after consuming
// the response. Caller-constructed Txns passed to Push are never pooled.
func (c *Controller) AcquireTxn() *Txn {
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		*t = Txn{pooled: true}
		return t
	}
	return &Txn{pooled: true}
}

// Recycle returns a pool-acquired transaction to the freelist; Txns not
// obtained from AcquireTxn are ignored. The caller must not touch t after
// recycling it.
func (c *Controller) Recycle(t *Txn) {
	if t != nil && t.pooled {
		c.free = append(c.free, t)
	}
}

// Push enqueues a transaction arriving at cycle. It reports false when the
// queue is full (bounded QueueDepth), in which case the caller must retry —
// the paper's architecture applies backpressure through the bus instead, so
// the simulator uses an unbounded queue by default.
func (c *Controller) Push(t *Txn, cycle uint64) bool {
	n := c.QueueLen()
	if c.cfg.QueueDepth > 0 && n >= c.cfg.QueueDepth {
		c.stats.Rejected++
		return false
	}
	t.Arrive = cycle
	c.queue = append(c.queue, t)
	if n+1 > c.stats.MaxQueue {
		c.stats.MaxQueue = n + 1
	}
	return true
}

// pending returns the queued (not yet issued) transactions, oldest first.
func (c *Controller) pending() []*Txn { return c.queue[c.qhead:] }

// remove drops the i-th queued transaction (an index into pending). The
// head only advances qhead; the slice is compacted to the front once the
// dead prefix is longer than the live rest, so every transaction is
// copied O(1) times on average however deep the backlog grows.
func (c *Controller) remove(i int) {
	if i > 0 {
		q := c.pending()
		copy(q[i:], q[i+1:])
		q[len(q)-1] = nil
		c.queue = c.queue[:len(c.queue)-1]
		return
	}
	c.queue[c.qhead] = nil
	c.qhead++
	if c.qhead > len(c.queue)/2 {
		n := copy(c.queue, c.queue[c.qhead:])
		clear(c.queue[n:])
		c.queue = c.queue[:n]
		c.qhead = 0
	}
}

// QueueLen returns the number of queued (not yet issued) transactions.
func (c *Controller) QueueLen() int { return len(c.queue) - c.qhead }

// Busy reports whether any transaction is queued or in flight.
func (c *Controller) Busy() bool {
	return c.QueueLen() > 0 || len(c.inflight) > 0 || len(c.ready) > 0
}

// Tick advances the controller: completes in-flight transactions and issues
// at most one queued transaction if the channel and target bank allow it.
func (c *Controller) Tick(cycle uint64) {
	// Retire finished transactions.
	if len(c.inflight) > 0 {
		keep := c.inflight[:0]
		for _, t := range c.inflight {
			if t.DataAt <= cycle {
				if t.Write {
					c.stats.Writes++
					c.Recycle(t)
				} else {
					c.stats.Reads++
					c.ready = append(c.ready, t)
				}
			} else {
				keep = append(keep, t)
			}
		}
		for i := len(keep); i < len(c.inflight); i++ {
			c.inflight[i] = nil
		}
		c.inflight = keep
	}
	if c.QueueLen() == 0 || c.chanFree > cycle {
		return
	}
	idx := c.pick(cycle)
	if idx < 0 {
		return
	}
	t := c.pending()[idx]
	c.remove(idx)
	c.issue(t, cycle)
}

// pick returns the index into pending of the transaction to issue, or -1.
func (c *Controller) pick(cycle uint64) int {
	q := c.pending()
	switch c.cfg.Sched {
	case FRFCFS:
		// First ready row hit, else oldest issuable.
		oldest := -1
		for i, t := range q {
			b := &c.banks[c.Bank(t.Addr)]
			if b.freeAt > cycle {
				continue
			}
			if b.openRow == c.Row(t.Addr) {
				return i
			}
			if oldest < 0 {
				oldest = i
			}
		}
		return oldest
	default: // FIFO: strictly in order; block if the head's bank is busy.
		if c.banks[c.Bank(q[0].Addr)].freeAt > cycle {
			return -1
		}
		return 0
	}
}

func (c *Controller) issue(t *Txn, cycle uint64) {
	b := &c.banks[c.Bank(t.Addr)]
	row := c.Row(t.Addr)
	var lat int
	switch {
	case b.openRow == row:
		lat = c.cfg.TCL
		c.stats.RowHits++
	case b.openRow < 0:
		lat = c.cfg.TRCD + c.cfg.TCL
		c.stats.RowEmpty++
	default:
		lat = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCL
		c.stats.RowConflicts++
	}
	t.Start = cycle
	t.DataAt = cycle + uint64(lat+c.cfg.TBurst)
	b.freeAt = t.DataAt
	if c.cfg.OpenPage {
		b.openRow = row
	} else {
		b.openRow = -1
		b.freeAt += uint64(c.cfg.TRP)
	}
	c.chanFree = t.DataAt
	c.stats.ChannelBusy += uint64(c.cfg.TBurst)
	c.inflight = append(c.inflight, t)
}

// PopReady removes and returns the oldest completed read awaiting a bus
// response slot, or nil. The head is shifted out in place so the slice
// keeps its capacity (a front reslice would leak it and force the next
// append to reallocate).
func (c *Controller) PopReady() *Txn {
	if len(c.ready) == 0 {
		return nil
	}
	t := c.ready[0]
	copy(c.ready, c.ready[1:])
	c.ready[len(c.ready)-1] = nil
	c.ready = c.ready[:len(c.ready)-1]
	return t
}

// NextEvent returns the earliest cycle at or after cycle at which the
// controller might change state (retire an in-flight transaction or issue
// a queued one), or ^uint64(0) when it is idle. The estimate may be
// conservative (early), never late: the idle-cycle fast path uses it to
// skip cycles where Tick provably does nothing.
func (c *Controller) NextEvent(cycle uint64) uint64 {
	next := ^uint64(0)
	for _, t := range c.inflight {
		if t.DataAt < next {
			next = t.DataAt
		}
	}
	if c.QueueLen() > 0 {
		// Earliest possible issue: the channel must be free. Bank busy
		// states beyond chanFree (close-page precharge) degrade to a
		// cycle-by-cycle crawl, which is conservative and exact.
		v := c.chanFree
		if v < cycle {
			v = cycle
		}
		if v < next {
			next = v
		}
	}
	if next < cycle {
		next = cycle
	}
	return next
}

// HasReady reports whether any completed read is awaiting a bus response
// slot. It is the event scheduler's cheap gate around the response-routing
// phase: ready transactions only appear in Tick, so when this is false the
// phase is provably a no-op.
func (c *Controller) HasReady() bool { return len(c.ready) > 0 }

// PeekReady returns the oldest completed read without removing it, or nil.
func (c *Controller) PeekReady() *Txn {
	if len(c.ready) == 0 {
		return nil
	}
	return c.ready[0]
}
