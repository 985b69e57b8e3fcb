// Package cpu models the in-order cores of the simulated multicore. The
// timing contract that the paper's experiments rest on is implemented here:
//
//   - A load whose data returns in cycle D lets the next instruction start
//     in D (full forwarding), so with k nops between loads the next bus
//     request becomes ready at D + DL1Latency + k*NopLatency — the paper's
//     injection time δ = δrsk + k*δnop with δrsk = DL1 latency (1 in the
//     reference NGMP configuration, 4 in the variant).
//   - Stores retire into the store buffer after the DL1 access and only
//     stall the pipeline when the buffer is full; buffered stores drain to
//     the bus whenever the core's port is free, with zero injection time
//     between consecutive drains.
package cpu

import (
	"fmt"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/isa"
)

// Port is the core's view of its bus master port. The simulator system
// adapts the shared bus to this interface.
type Port interface {
	// Free reports whether the port has no outstanding request.
	Free() bool
	// Submit registers r as the port's outstanding request, ready at
	// cycle.
	Submit(r *bus.Request, cycle uint64)
	// SubmitAt registers r as the port's outstanding request becoming
	// ready at a future cycle. The core calls it when the submission at
	// that cycle is already fully determined (the port is free and nothing
	// the core does before then can claim it), letting the bus treat the
	// request exactly as if Submit ran at the ready cycle without the core
	// being ticked there.
	SubmitAt(r *bus.Request, ready uint64)
}

// Config describes one core.
type Config struct {
	// ID is the core index; it doubles as the bus port number.
	ID int
	// DL1 and IL1 are the private first-level caches (owned by the core).
	DL1, IL1 *cache.Cache
	// DL1Latency and IL1Latency are the L1 lookup times in cycles
	// (1 in the paper's reference configuration, 4 in the variant).
	DL1Latency, IL1Latency int
	// NopLatency, IntLatency and BranchLatency are the execution
	// latencies of nop, integer-ALU and loop-branch instructions.
	NopLatency, IntLatency, BranchLatency int
	// StoreBufferDepth is the store buffer capacity in entries.
	StoreBufferDepth int
}

// Validate checks the core configuration.
func (c Config) Validate() error {
	if c.ID < 0 {
		return fmt.Errorf("cpu: negative core id %d", c.ID)
	}
	if c.DL1 == nil || c.IL1 == nil {
		return fmt.Errorf("cpu: core %d missing L1 caches", c.ID)
	}
	if c.DL1Latency < 1 || c.IL1Latency < 1 {
		return fmt.Errorf("cpu: core %d L1 latencies must be >= 1 (dl1=%d il1=%d)", c.ID, c.DL1Latency, c.IL1Latency)
	}
	if c.NopLatency < 1 || c.IntLatency < 1 || c.BranchLatency < 1 {
		return fmt.Errorf("cpu: core %d execution latencies must be >= 1", c.ID)
	}
	if c.StoreBufferDepth < 1 {
		return fmt.Errorf("cpu: core %d store buffer depth must be >= 1, got %d", c.ID, c.StoreBufferDepth)
	}
	return nil
}

type state uint8

// Stall kinds for the span-based stall accounting (see Core.stallKind).
const (
	stallNone uint8 = iota
	stallPort
	stallSB
)

const (
	// sRun: ready to start the instruction at pc once nextFree is reached.
	sRun state = iota
	// sLoadIssue: DL1 miss determined; waiting for the bus port to submit
	// the load request.
	sLoadIssue
	// sWaitLoad: load request at the bus; waiting for data.
	sWaitLoad
	// sIFetchIssue: IL1 miss determined; waiting for the bus port.
	sIFetchIssue
	// sWaitIFetch: instruction fetch at the bus; waiting for the line.
	sWaitIFetch
	// sStoreCommit: DL1 access done; trying to enter the store buffer.
	sStoreCommit
	// sDone: program finished (scua completed its iterations).
	sDone
)

// Counters collects per-core activity over a measurement window.
type Counters struct {
	Instrs   uint64
	Loads    uint64
	Stores   uint64
	Nops     uint64
	ALUs     uint64
	Branches uint64
	// Iters counts completed body iterations.
	Iters uint64
	// SBStallCycles counts cycles the pipeline was blocked on a full
	// store buffer.
	SBStallCycles uint64
	// PortStallCycles counts cycles a demand miss waited for the core's
	// bus port (a store drain in flight).
	PortStallCycles uint64
}

// Core is one in-order, single-issue core.
type Core struct {
	cfg  Config
	prog *isa.Program
	port Port

	maxIters uint64 // 0 = run forever (contender)
	inSetup  bool
	pc       int

	st       state
	nextFree uint64
	done     bool

	fetchLine   uint64
	haveFetch   bool
	lineMask    uint64
	commitAddr  uint64
	pendingAddr uint64

	sb *StoreBuffer

	// noBatch disables instruction-run batching (runs of non-memory
	// instructions), forcing one instruction per Tick — the pre-batching
	// reference behavior the simulator's equivalence tests compare
	// against.
	noBatch bool
	// batchPC and batchStart are the pc of the most recent instruction
	// batch's first instruction and the cycle it issued; batchEnd is the
	// cycle the batch finishes issuing (its nextFree). The batch spans
	// [batchPC, pc) of the current sequence while it is in flight, so
	// Counters and ResetCounters re-walk it (batchTail) to split it
	// exactly across a measurement-window boundary. now is the cycle of
	// the core's latest Tick, the read point those splits are computed
	// against.
	batchEnd   uint64
	batchStart uint64
	batchPC    int
	now        uint64

	// stallKind/stallFrom implement closed-form stall accounting for the
	// event-driven scheduler: a blocked attempt charges the whole span of
	// skipped stall cycles since stallFrom at once instead of relying on
	// one Tick per cycle. Under cycle-by-cycle execution every span has
	// length one, so the arithmetic degenerates to the historical
	// one-increment-per-Tick behavior — the counters are bit-identical
	// either way.
	stallKind uint8
	stallFrom uint64

	// req is the core's reusable bus request. A port has at most one
	// transaction live at the bus (Port.Free gates every submission), and
	// the bus drops its reference when the completion is dispatched, so a
	// single backing object per core eliminates the per-transaction heap
	// allocation that dominated the steady-state profile.
	req bus.Request

	ctr Counters
}

// New builds a core executing prog through port. maxIters bounds the number
// of body iterations (0 = run until the simulation stops; used for
// contenders, which "must not complete execution before the scua").
func New(cfg Config, prog *isa.Program, port Port, maxIters uint64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if port == nil {
		return nil, fmt.Errorf("cpu: core %d has no bus port", cfg.ID)
	}
	c := &Core{
		cfg:      cfg,
		prog:     prog,
		port:     port,
		maxIters: maxIters,
		inSetup:  len(prog.Setup) > 0,
		sb:       NewStoreBuffer(cfg.StoreBufferDepth),
		lineMask: ^(uint64(cfg.IL1.Config().LineBytes) - 1),
	}
	// The reusable request's port never changes; the issue paths only
	// rewrite Kind and Addr (every other field is set downstream: Ready by
	// Submit, Grant/Occupancy/Hit at arbitration).
	c.req.Port = cfg.ID
	return c, nil
}

// ID returns the core index.
func (c *Core) ID() int { return c.cfg.ID }

// Program returns the bound program.
func (c *Core) Program() *isa.Program { return c.prog }

// Done reports whether the core finished its bounded iterations.
func (c *Core) Done() bool { return c.done }

// Iters returns the number of completed body iterations.
func (c *Core) Iters() uint64 { return c.ctr.Iters }

// Counters returns a copy of the per-core counters as of the core's
// latest executed cycle. An instruction batch (a run of non-memory
// instructions) pre-commits its whole run's op counts and Instrs; the
// instructions of the batch that serially would issue after that cycle
// are subtracted, so readers observe exactly the
// one-instruction-per-Tick counts.
func (c *Core) Counters() Counters {
	ctr := c.ctr
	if c.now < c.batchEnd {
		c.batchTail(&ctr, c.now+1, ^uint64(0))
	}
	return ctr
}

// runTally sums a run of non-memory instructions: the cycles they take
// to issue back to back and how many of each kind they commit. It is the
// single source of the opcode→latency and opcode→counter mappings, used
// both when a batch is issued and when a mid-flight batch is split at a
// window boundary.
type runTally struct {
	cycles, nops, alus, branches uint64
}

// add returns t with in tallied when in is a non-memory instruction, and
// reports whether it was; a memory instruction ends a run and leaves t
// as it is. Tallies pass by value so a run's sums stay in registers.
func (c *Core) add(t runTally, in isa.Instr) (runTally, bool) {
	switch in.Op {
	case isa.OpNop:
		t.cycles += uint64(c.cfg.NopLatency)
		t.nops++
	case isa.OpIALU:
		if in.Lat > 0 {
			t.cycles += uint64(in.Lat)
		} else {
			t.cycles += uint64(c.cfg.IntLatency)
		}
		t.alus++
	case isa.OpBranch:
		t.cycles += uint64(c.cfg.BranchLatency)
		t.branches++
	default:
		return t, false
	}
	return t, true
}

// commit adds d times the tallied op counts to ctr, leaving Instrs to
// the caller.
func (t runTally) commit(ctr *Counters, d uint64) {
	ctr.Nops += t.nops * d
	ctr.ALUs += t.alus * d
	ctr.Branches += t.branches * d
}

// batchTail adds d to the op counter and Instrs of every instruction of
// the in-flight batch that issues at or after cycle from: d = 1
// re-credits them to a new window, d = ^uint64(0) (minus one) takes back
// those a reader must not see yet. It re-walks the batch from batchPC and
// batchStart, at most one fetch line of instructions: those issuing
// before from go to head, whose cycles give the next one's issue cycle,
// and the rest to tail.
func (c *Core) batchTail(ctr *Counters, from, d uint64) {
	var head, tail runTally
	for _, in := range c.seq()[c.batchPC:c.pc] {
		if c.batchStart+head.cycles < from {
			head, _ = c.add(head, in)
		} else {
			tail, _ = c.add(tail, in)
		}
	}
	tail.commit(ctr, d)
	ctr.Instrs += (tail.nops + tail.alus + tail.branches) * d
}

// StoreBuffer exposes the core's store buffer (read-mostly; tests and PMC
// collection use it).
func (c *Core) StoreBuffer() *StoreBuffer { return c.sb }

// ResetCounters zeroes the activity counters as of the given cycle
// (excluding Iters progress tracking would break measurement; Iters is
// preserved so the harness can count iterations across the reset; callers
// should snapshot and subtract).
//
// An instruction batch commits its whole run's op counts and Instrs at
// batch start, so if the reset lands mid-batch the instructions that
// serially would issue at or after the reset cycle are re-credited to
// the new window — keeping the counters bit-identical to
// one-instruction-per-Tick execution.
func (c *Core) ResetCounters(cycle uint64) {
	iters := c.ctr.Iters
	c.ctr = Counters{Iters: iters}
	if cycle < c.batchEnd {
		c.batchTail(&c.ctr, cycle, 1)
	}
	c.sb.Pushes, c.sb.FullStalls, c.sb.Drains = 0, 0, 0
	// A reset landing inside an open stall span discards the uncharged
	// pre-reset share: stall cycles before the window boundary belong to
	// the zeroed counters, not the new window.
	if c.stallKind != stallNone && c.stallFrom < cycle {
		c.stallFrom = cycle
	}
}

// SetNopBatching toggles instruction-run batching and the deferred-issue
// shortcut together (both enabled by default): runs of non-memory
// instructions (nops, IALUs of any latency, branches) on one fetch line
// execute as one batched step, and miss requests whose issue step is
// fully determined are registered at the bus ahead of time
// (Port.SubmitAt).
// Disabling both restores strict one-instruction-per-Tick execution with
// every submission performed at its issue step; externally observable
// behavior (bus traffic and its Ready cycles, iteration boundaries,
// counters at those boundaries) is identical either way — the reference
// mode is the oracle the shortcuts' equivalence tests diff against.
func (c *Core) SetNopBatching(enabled bool) { c.noBatch = !enabled }

// Idle reports whether the core has no in-flight activity: used by the
// harness to detect quiescence after the scua finishes.
func (c *Core) Idle() bool {
	return c.st == sDone && c.sb.Empty()
}

// seq returns the instruction sequence pc indexes: the setup sequence
// until it completes, the body afterwards.
func (c *Core) seq() []isa.Instr {
	if c.inSetup {
		return c.prog.Setup
	}
	return c.prog.Body
}

func (c *Core) curAddr() uint64 {
	return c.prog.InstrAddr(c.inSetup, c.pc)
}

func (c *Core) advance() {
	c.ctr.Instrs++
	c.pc++
	if c.inSetup {
		if c.pc >= len(c.prog.Setup) {
			c.inSetup = false
			c.pc = 0
		}
		return
	}
	if c.pc >= len(c.prog.Body) {
		c.pc = 0
		c.ctr.Iters++
		if c.maxIters > 0 && c.ctr.Iters >= c.maxIters {
			c.st = sDone
			c.done = true
		}
	}
}

// Tick advances the core at cycle. The owning system calls it once per
// cycle, after bus completions have been dispatched.
func (c *Core) Tick(cycle uint64) {
	c.now = cycle
	for {
		c.tryDrain(cycle)
		if c.done && c.st == sDone {
			return
		}
		if cycle < c.nextFree {
			return
		}
		switch c.st {
		case sRun:
			if !c.step(cycle) {
				return
			}
		case sLoadIssue:
			if !c.port.Free() {
				c.chargePortStall(cycle)
				return
			}
			c.settleStall(cycle)
			c.req.Kind = bus.KindLoad
			c.req.Addr = c.pendingAddr
			c.port.Submit(&c.req, cycle)
			c.st = sWaitLoad
			return
		case sIFetchIssue:
			if !c.port.Free() {
				c.chargePortStall(cycle)
				return
			}
			c.settleStall(cycle)
			c.req.Kind = bus.KindIFetch
			c.req.Addr = c.pendingAddr
			c.port.Submit(&c.req, cycle)
			c.st = sWaitIFetch
			return
		case sStoreCommit:
			if !c.sb.Push(c.commitAddr) {
				c.chargeSBStall(cycle)
				return
			}
			c.settleStall(cycle)
			c.st = sRun
			c.advance()
			// The store committed exactly at nextFree; the next
			// instruction starts this same cycle (loop again).
		case sWaitLoad, sWaitIFetch:
			return
		case sDone:
			return
		}
	}
}

// NextEvent returns the earliest cycle at or after cycle at which this
// core might act on its own, or ^uint64(0) when it is entirely
// event-driven right now — woken only by a completion dispatched on its
// bus port. Stalled states (port busy, full store buffer) fall in the
// event-driven class: the blocking condition clears exclusively when the
// core's own in-flight transaction completes, which the scheduler
// delivers as a wake, and the span-based stall accounting (see
// chargePortStall/chargeSBStall/SyncNow) keeps the per-cycle stall
// counters exact across the skipped cycles. Used by the simulator's
// event-driven scheduler; it must never be later than the core's true
// next self-driven action.
func (c *Core) NextEvent(cycle uint64) uint64 {
	switch c.st {
	case sWaitLoad, sWaitIFetch, sDone:
		// Woken by completions only. Store-buffer drains also resume on
		// bus events: if a drainable head is still queued after Tick, the
		// port is busy, and the completion dispatch covers the wake-up.
		return ^uint64(0)
	default: // sRun, sLoadIssue, sIFetchIssue, sStoreCommit
		if c.nextFree >= cycle {
			return c.nextFree
		}
		// nextFree has passed and the core is still in an attempting
		// state: the attempt at nextFree blocked on the port or store
		// buffer, and only a completion on the core's own port can
		// unblock it.
		return ^uint64(0)
	}
}

// chargePortStall accounts a blocked issue attempt at cycle: the current
// cycle's stall plus every skipped stall cycle since stallFrom (cycles in
// which a cycle-by-cycle run would have re-attempted and failed).
func (c *Core) chargePortStall(cycle uint64) {
	if c.stallKind != stallPort {
		c.stallKind = stallPort
		c.stallFrom = cycle
	}
	c.ctr.PortStallCycles += cycle - c.stallFrom + 1
	c.stallFrom = cycle + 1
}

// chargeSBStall accounts a blocked store-buffer push at cycle. Push has
// already counted this attempt in sb.FullStalls, so only the skipped
// span's attempts are mirrored there.
func (c *Core) chargeSBStall(cycle uint64) {
	if c.stallKind != stallSB {
		c.stallKind = stallSB
		c.stallFrom = cycle
	}
	span := cycle - c.stallFrom + 1
	c.ctr.SBStallCycles += span
	c.sb.FullStalls += span - 1
	c.stallFrom = cycle + 1
}

// settleStall closes an open stall span at an attempt that succeeds at
// cycle: the skipped cycles before it (each of which would have been a
// failed attempt under cycle-by-cycle execution) are charged and the
// marker clears.
func (c *Core) settleStall(cycle uint64) {
	if c.stallKind == stallNone {
		return
	}
	if cycle > c.stallFrom {
		span := cycle - c.stallFrom
		switch c.stallKind {
		case stallPort:
			c.ctr.PortStallCycles += span
		default:
			c.ctr.SBStallCycles += span
			c.sb.FullStalls += span
		}
	}
	c.stallKind = stallNone
}

// SyncNow advances the core's observation point to cycle without
// executing anything: the batch-split read point (now) moves forward and
// any open stall span is charged through cycle, exactly as a
// cycle-by-cycle run ticking the core at every skipped cycle would have
// done. The event-driven scheduler calls it when a run stops, so counter
// readers observe bit-identical values in either execution mode.
func (c *Core) SyncNow(cycle uint64) {
	if cycle > c.now {
		c.now = cycle
	}
	if c.stallKind != stallNone && cycle >= c.stallFrom {
		span := cycle - c.stallFrom + 1
		switch c.stallKind {
		case stallPort:
			c.ctr.PortStallCycles += span
		default:
			c.ctr.SBStallCycles += span
			c.sb.FullStalls += span
		}
		c.stallFrom = cycle + 1
	}
}

// step starts the instruction at pc in cycle. It returns true when the core
// may attempt further progress within the same cycle.
func (c *Core) step(cycle uint64) bool {
	// Instruction fetch at line granularity: a one-line fetch buffer.
	addr := c.curAddr()
	line := addr & c.lineMask
	if !c.haveFetch || line != c.fetchLine {
		res := c.cfg.IL1.Access(addr, false, c.cfg.ID)
		if !res.Hit {
			c.pendingAddr = line
			c.nextFree = cycle + uint64(c.cfg.IL1Latency)
			if !c.noBatch && c.port.Free() {
				// Same deferred-issue shortcut as the load-miss path:
				// the submission at nextFree is fully determined, so
				// register it now and wait for the line directly.
				c.req.Kind = bus.KindIFetch
				c.req.Addr = line
				c.port.SubmitAt(&c.req, c.nextFree)
				c.st = sWaitIFetch
			} else {
				c.st = sIFetchIssue
			}
			return true
		}
		c.fetchLine = line
		c.haveFetch = true
	}

	in := c.seq()[c.pc]
	switch in.Op {
	case isa.OpNop, isa.OpIALU, isa.OpBranch:
		c.execRun(cycle, addr)
	case isa.OpLoad:
		c.ctr.Loads++
		res := c.cfg.DL1.Access(in.Addr, false, c.cfg.ID)
		c.nextFree = cycle + uint64(c.cfg.DL1Latency)
		if res.Hit {
			c.advance()
		} else {
			// Miss known after the DL1 lookup; the bus request
			// becomes ready at nextFree.
			c.pendingAddr = c.cfg.DL1.LineAddr(in.Addr)
			if !c.noBatch && c.port.Free() {
				// The issue step at nextFree is fully determined: the
				// port is free and nothing can claim it before then
				// (the store buffer holds no drainable entry — this
				// Tick's tryDrain would have taken the port — and the
				// blocked pipeline issues nothing else). Register the
				// request now, ready at nextFree, and skip straight to
				// the wait state so the scheduler never has to execute
				// the issue step. Disabled together with batching: the
				// strict one-instruction-per-Tick reference mode is
				// the oracle this shortcut is diffed against.
				c.req.Kind = bus.KindLoad
				c.req.Addr = c.pendingAddr
				c.port.SubmitAt(&c.req, c.nextFree)
				c.st = sWaitLoad
			} else {
				c.st = sLoadIssue
			}
		}
	case isa.OpStore:
		c.ctr.Stores++
		c.cfg.DL1.Access(in.Addr, true, c.cfg.ID)
		c.commitAddr = c.cfg.DL1.LineAddr(in.Addr)
		c.st = sStoreCommit
		c.nextFree = cycle + uint64(c.cfg.DL1Latency)
	default:
		panic(fmt.Sprintf("cpu: core %d unknown opcode %v", c.cfg.ID, in.Op))
	}
	return true
}

// execRun executes the run of non-memory instructions (nops, IALUs of
// any latency, branches) that starts at pc, fetched from addr, as one
// batched step. Those instructions cannot miss IL1 or touch the bus as
// long as the run stays on the current fetch line, and the run never
// takes the sequence's last instruction (so the scalar path keeps
// handling setup→body and iteration boundaries), which makes the batch
// cycle-exact: the next instruction starts at the same cycle as under
// one-instruction-per-Tick execution. nextFree advances by the sum of
// the run's latencies, its op counters and Instrs are pre-committed, pc
// jumps over it, and batchPC/batchStart/batchEnd let the counter readers
// split a mid-flight batch exactly. Batching is what lets the event
// engine skip across compute: a core chewing nops or ALU work one Tick at
// a time would pin the platform clock to its issue cycles. A
// single-instruction run degenerates to the historical scalar path
// (advance handles setup/body transitions and iteration boundaries).
func (c *Core) execRun(cycle, addr uint64) {
	run := c.seq()[c.pc:]
	limit := 1
	if !c.noBatch {
		lineBytes := ^c.lineMask + 1
		left := int((c.fetchLine + lineBytes - addr) / isa.InstrBytes)
		limit = max(1, min(left, len(run)-1))
	}
	// step dispatches here on a non-memory opcode, so n ends >= 1.
	var t runTally
	n := 0
	for _, in := range run[:limit] {
		var ok bool
		if t, ok = c.add(t, in); !ok {
			break
		}
		n++
	}
	t.commit(&c.ctr, 1)
	c.nextFree = cycle + t.cycles
	if n == 1 {
		c.advance()
		return
	}
	c.ctr.Instrs += uint64(n)
	c.batchPC = c.pc
	c.batchStart = cycle
	c.batchEnd = c.nextFree
	c.pc += n
}

// tryDrain submits the store buffer head to the bus when the port is free
// and no demand miss is competing for it (demand requests have priority).
func (c *Core) tryDrain(cycle uint64) {
	if c.st == sLoadIssue || c.st == sIFetchIssue {
		return
	}
	addr, ok := c.sb.Head()
	if !ok || !c.port.Free() {
		return
	}
	c.sb.MarkInflight()
	c.req.Kind = bus.KindStore
	c.req.Addr = addr
	c.port.Submit(&c.req, cycle)
}

// LoadDone delivers load data at cycle: the load retires and the next
// instruction may start in the same cycle. No DL1 refill happens here: the
// line was already installed when the miss was looked up (Access allocates
// on read misses), the cache is private, and the core issues no other data
// accesses while the load is in flight — so the line is still present and
// a refill scan would be a guaranteed early-return.
func (c *Core) LoadDone(cycle uint64) {
	if c.st != sWaitLoad {
		panic(fmt.Sprintf("cpu: core %d LoadDone in state %d", c.cfg.ID, c.st))
	}
	c.st = sRun
	c.nextFree = cycle
	c.advance()
}

// IFetchDone delivers an instruction line at cycle; the stalled instruction
// restarts (and now hits the fetch buffer fast path). As with LoadDone, the
// IL1 line was installed at the miss lookup and cannot have been evicted
// since (the cache is private and the core fetches nothing else meanwhile),
// so no refill is performed.
func (c *Core) IFetchDone(cycle uint64) {
	if c.st != sWaitIFetch {
		panic(fmt.Sprintf("cpu: core %d IFetchDone in state %d", c.cfg.ID, c.st))
	}
	c.fetchLine = c.pendingAddr
	c.haveFetch = true
	c.st = sRun
	c.nextFree = cycle
}

// StoreDrained retires the in-flight store buffer entry after its bus
// transaction completed at cycle.
func (c *Core) StoreDrained(uint64) {
	c.sb.PopInflight()
}

// DL1 returns the core's data cache (for harness statistics).
func (c *Core) DL1() *cache.Cache { return c.cfg.DL1 }

// IL1 returns the core's instruction cache (for harness statistics).
func (c *Core) IL1() *cache.Cache { return c.cfg.IL1 }
