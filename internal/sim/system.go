package sim

import (
	"fmt"
	"sync/atomic"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/cpu"
	"rrbus/internal/isa"
	"rrbus/internal/mem"
)

// memTxnKind values carried in mem.Txn.Tag / bus.Request.Tag so response
// completions know which core-side event to deliver.
const (
	tagLoad uint64 = iota
	tagIFetch
)

// Engine selects how a System executes. Every engine produces
// bit-identical results — the equivalence suite and the CI engine smoke
// diff them — so the choice only changes how much work a run does.
type Engine uint8

const (
	// Steady is the default: event-driven execution that additionally
	// leaps whole periods once the run settles into a verified periodic
	// fixed point (see internal steadystate).
	Steady Engine = iota
	// Event jumps from event to event, executing every period.
	Event
	// Oracle ticks every component every cycle with instruction
	// batching off: the legacy loop the other engines are diffed against.
	Oracle
)

// System is one fully wired simulated platform executing a set of programs,
// one per core. It advances cycle by cycle and is strictly deterministic.
type System struct {
	cfg   Config
	cores []*cpu.Core
	bus   *bus.Bus
	l2    *cache.Cache
	mc    *mem.Controller
	cycle uint64

	memPort int

	// respReq is the reusable memory-response bus request: the memory
	// port has at most one response outstanding at the bus (HasPending
	// gates submission), so a single backing object avoids a heap
	// allocation per L2 miss.
	respReq bus.Request

	// engine selects how RunUntil executes (see Engine).
	engine Engine
	// checkPredicates enables a debug assertion in RunUntil that catches
	// predicates reading raw Cycle() thresholds: the event-driven clock
	// jumps between events, so such a predicate can be observed later than
	// under cycle-by-cycle execution (RunUntil's documented footgun). The
	// check probes the predicate once per RunUntil call with a temporarily
	// offset clock and panics when the result depends on it. Off by
	// default (it costs two extra predicate calls and legitimately
	// cycle-gated harnesses exist under the Oracle engine); tests enable
	// it.
	checkPredicates bool

	// ss is the per-system steady-state detector, taken from its pool at
	// the first Steady RunUntil and re-armed at every event-driven entry
	// (nil until then), and ssWatch the core whose iteration boundaries it
	// observes (the scua under the measurement harness).
	ssWatch int
	ss      *ssDetector

	// Event scheduler state (event-driven RunUntil only). eq registers
	// each component's next self-scheduled cycle (cores by index, then
	// busID, then memID); dueCore marks cores woken by a completion
	// dispatched on their port this macro-step; memPushed marks a memory
	// transaction pushed during dispatch, which the controller must see
	// in the same cycle (as the legacy phase order does).
	eq        eventQueue
	dueCore   []bool
	busID     int
	memID     int
	memPushed bool

	// steps counts executed macro-steps (either mode) and lastExec the
	// last cycle one executed at; the steps-vs-cycles ratio is the
	// dead-time elimination the event core achieves.
	steps    uint64
	lastExec uint64
}

// execSteps/execCycles tally macro-steps executed and cycles simulated
// across every System in the process (RunUntil accumulates on exit).
// Deliberately package-level atomics rather than Measurement fields: the
// ratio is an execution-engine property, not a simulated quantity, and
// measurements must stay bit-identical between execution modes.
var execSteps, execCycles atomic.Uint64

// ExecStats is a process-wide tally of simulator execution effort.
type ExecStats struct {
	// Steps is the number of macro-steps executed (cycles in which at
	// least one component was actually ticked).
	Steps uint64
	// Cycles is the number of simulated platform cycles covered.
	Cycles uint64
	// Extrapolated is the share of Cycles covered by steady-state period
	// extrapolation instead of executed steps (see internal steadystate).
	Extrapolated uint64
	// PeriodsLeapt counts whole steady-state periods extrapolated.
	PeriodsLeapt uint64
}

// ReadExecStats returns the cumulative process-wide execution tally.
// Cycles/Steps is the dead-time elimination factor of the event-driven
// scheduler (1.0 under the Oracle engine); Extrapolated/Cycles is the
// share of simulated time the steady-state engine covered in closed form.
func ReadExecStats() ExecStats {
	return ExecStats{
		Steps:        execSteps.Load(),
		Cycles:       execCycles.Load(),
		Extrapolated: ssExtrapolated.Load(),
		PeriodsLeapt: ssPeriods.Load(),
	}
}

// port adapts the shared bus to the cpu.Port interface for one core.
type port struct {
	s  *System
	id int
}

// Free implements cpu.Port.
func (p port) Free() bool { return !p.s.bus.HasPending(p.id) }

// Submit implements cpu.Port.
func (p port) Submit(r *bus.Request, cycle uint64) { p.s.bus.Submit(r, cycle) }

// SubmitAt implements cpu.Port (deferred submission; see bus.SubmitAt).
func (p port) SubmitAt(r *bus.Request, ready uint64) { p.s.bus.SubmitAt(r, ready) }

// NewSystem wires a platform from cfg running the given programs. programs
// must have between 1 and cfg.Cores entries; cores beyond len(programs)
// stay idle. maxIters[i] bounds core i's body iterations (0 = forever); it
// must have the same length as programs.
func NewSystem(cfg Config, programs []*isa.Program, maxIters []uint64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) == 0 || len(programs) > cfg.Cores {
		return nil, fmt.Errorf("sim: %d programs for %d cores", len(programs), cfg.Cores)
	}
	if len(maxIters) != len(programs) {
		return nil, fmt.Errorf("sim: %d iteration bounds for %d programs", len(maxIters), len(programs))
	}

	s := &System{cfg: cfg, memPort: cfg.Cores}

	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	s.l2 = l2

	s.mc, err = mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}

	arb, err := cfg.newArbiter(cfg.Cores + 1)
	if err != nil {
		return nil, err
	}
	s.bus, err = bus.New(cfg.Cores+1, arb, s.serve)
	if err != nil {
		return nil, err
	}

	for i, prog := range programs {
		if prog == nil {
			return nil, fmt.Errorf("sim: nil program for core %d", i)
		}
		dl1, err := cache.New(named(cfg.DL1, fmt.Sprintf("DL1.%d", i)))
		if err != nil {
			return nil, err
		}
		il1, err := cache.New(named(cfg.IL1, fmt.Sprintf("IL1.%d", i)))
		if err != nil {
			return nil, err
		}
		core, err := cpu.New(cpu.Config{
			ID:               i,
			DL1:              dl1,
			IL1:              il1,
			DL1Latency:       cfg.DL1.Latency,
			IL1Latency:       cfg.IL1.Latency,
			NopLatency:       cfg.NopLatency,
			IntLatency:       cfg.IntLatency,
			BranchLatency:    cfg.BranchLatency,
			StoreBufferDepth: cfg.StoreBufferDepth,
		}, prog, port{s: s, id: i}, maxIters[i])
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, core)
	}
	s.busID = len(s.cores)
	s.memID = len(s.cores) + 1
	s.eq.init(len(s.cores) + 2)
	s.dueCore = make([]bool, len(s.cores))
	return s, nil
}

func named(c cache.Config, name string) cache.Config {
	c.Name = name
	return c
}

// Config returns the platform configuration.
func (s *System) Config() Config { return s.cfg }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// Bus returns the shared bus (hooks and statistics).
func (s *System) Bus() *bus.Bus { return s.bus }

// L2 returns the shared cache.
func (s *System) L2() *cache.Cache { return s.l2 }

// Mem returns the memory controller.
func (s *System) Mem() *mem.Controller { return s.mc }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// NumCores returns the number of active cores.
func (s *System) NumCores() int { return len(s.cores) }

// serve is the bus grant-time callback: it performs the L2 lookup, decides
// the transaction occupancy and generates background memory traffic
// (writebacks, store-miss line fetches).
func (s *System) serve(r *bus.Request) int {
	switch r.Kind {
	case bus.KindLoad, bus.KindIFetch:
		res := s.l2.Access(r.Addr, false, r.Port)
		r.Hit = res.Hit
		if res.NeedsWriteback {
			s.pushTxn(res.WritebackAddr, true, -1, 0, r.Grant)
		}
		return s.cfg.BusTransferLat + s.cfg.L2HitLat
	case bus.KindStore:
		res := s.l2.Access(r.Addr, true, r.Port)
		r.Hit = res.Hit
		if res.NeedsWriteback {
			s.pushTxn(res.WritebackAddr, true, -1, 0, r.Grant)
		}
		switch {
		case !res.Hit && s.cfg.L2.Write == cache.WriteBack:
			// Write-allocate: the L2 line was installed at lookup
			// time; fetch its contents in the background (the
			// L2-memory path does not re-cross the front bus).
			s.pushTxn(r.Addr, false, -1, 0, r.Grant)
		case !res.Hit:
			// Write-through L2: forward the write to memory.
			s.pushTxn(r.Addr, true, -1, 0, r.Grant)
		}
		return s.cfg.BusTransferLat + s.cfg.L2HitLat
	case bus.KindResp:
		return s.cfg.BusTransferLat
	default:
		panic(fmt.Sprintf("sim: unknown bus kind %v", r.Kind))
	}
}

// pushTxn enqueues a pool-acquired memory transaction; the pool (not the
// garbage collector) reclaims it when it retires.
func (s *System) pushTxn(addr uint64, write bool, origPort int, tag uint64, cycle uint64) {
	t := s.mc.AcquireTxn()
	t.Addr = addr
	t.Write = write
	t.OrigPort = origPort
	t.Tag = tag
	if !s.mc.Push(t, cycle) {
		// Config.Validate admits only the unbounded queue, and nothing
		// could retry a rejected transaction: a dropped read would leave
		// its core waiting forever.
		panic("sim: memory controller rejected a transaction")
	}
	// A push during completion dispatch must reach the controller's Tick
	// in this same cycle (the legacy phase order runs dispatch before
	// mc.Tick); the event scheduler honors that via this flag.
	s.memPushed = true
}

// dispatch applies the completion effects of a finished bus transaction.
// The completion also marks the affected core due in dueCore so the event
// scheduler ticks exactly the cores it can unblock: every completed
// core-side transaction frees the core's bus port (even an L2 miss whose
// data is still in memory — the port is free for a store-buffer drain the
// moment the front-bus phase ends), and data returns / drained stores /
// refill responses additionally advance the pipeline.
func (s *System) dispatch(r *bus.Request, cycle uint64) {
	switch r.Kind {
	case bus.KindLoad:
		s.dueCore[r.Port] = true
		if r.Hit {
			s.cores[r.Port].LoadDone(cycle)
			return
		}
		s.pushTxn(r.Addr, false, r.Port, tagLoad, cycle)
	case bus.KindIFetch:
		s.dueCore[r.Port] = true
		if r.Hit {
			s.cores[r.Port].IFetchDone(cycle)
			return
		}
		s.pushTxn(r.Addr, false, r.Port, tagIFetch, cycle)
	case bus.KindStore:
		s.dueCore[r.Port] = true
		s.cores[r.Port].StoreDrained(cycle)
	case bus.KindResp:
		// Refill the L2 (idempotent: the line was pre-installed at the
		// miss lookup) and wake the waiting core.
		s.l2.Fill(r.Addr, r.OrigPort)
		if r.Tag == tagIFetch {
			s.cores[r.OrigPort].IFetchDone(cycle)
		} else {
			s.cores[r.OrigPort].LoadDone(cycle)
		}
		s.dueCore[r.OrigPort] = true
	}
}

// routeResponses routes at most one completed memory read back over the
// bus; reads without a waiting core (OrigPort < 0, background fills)
// finish off the front bus.
func (s *System) routeResponses(c uint64) {
	if s.bus.HasPending(s.memPort) {
		return
	}
	for {
		t := s.mc.PeekReady()
		if t == nil {
			break
		}
		if t.OrigPort < 0 {
			s.mc.PopReady()
			s.mc.Recycle(t)
			continue
		}
		s.mc.PopReady()
		s.respReq = bus.Request{
			Port:     s.memPort,
			Kind:     bus.KindResp,
			Addr:     t.Addr,
			OrigPort: t.OrigPort,
			Tag:      t.Tag,
		}
		s.mc.Recycle(t)
		s.bus.Submit(&s.respReq, c)
		break
	}
}

// Step advances the platform by one cycle, ticking every component — the
// legacy cycle-by-cycle loop, kept as the oracle the event-driven
// scheduler's equivalence tests diff against (see Oracle).
func (s *System) Step() {
	c := s.cycle
	// Deferred submissions activate at their registered ready cycle, in
	// the same slot a direct Submit would have run in: ready cycles the
	// clock passed over (possible when mixing modes) at the very top,
	// ready == c entries just before their core's tick slot below.
	s.bus.ActivatePast(c)
	// After ActivatePast nothing deferred is ready before c, so per-core
	// activation probes only matter on steps where the earliest registered
	// ready is exactly c.
	actNow := s.bus.DefMin() == c
	if done := s.bus.Complete(c); done != nil {
		s.dispatch(done, c)
	}
	s.mc.Tick(c)
	s.routeResponses(c)
	for i, core := range s.cores {
		if actNow {
			s.bus.ActivateAt(i, c)
		}
		s.dueCore[i] = false
		core.Tick(c)
	}
	s.bus.Arbitrate(c)
	s.memPushed = false
	s.cycle = c + 1
	s.lastExec = c
	s.steps++
}

// eventStep executes one macro-step at the current cycle: the same five
// phases as Step, in the same order, but ticking only the components that
// are due — cores whose registered wake arrived or that a completion
// dispatched to, the controller at its wake (or when dispatch pushed a
// transaction it must see this cycle). Components whose model tolerates
// being ticked on any cycle (the bus's Complete/Arbitrate guards, the
// controller's retire/issue guards) run unconditionally; extra ticks are
// exactly what the legacy loop does every cycle, so conservatively early
// wakes can never change simulated state.
func (s *System) eventStep() {
	c := s.cycle
	// Deferred submissions whose ready cycle the clock jumped over enter
	// the pending set first, before the completion they may be contending
	// with is processed — the bus state they observe is exactly what a
	// Submit at their ready cycle observed (the bus stayed busy or idle
	// across the skipped span, or a step would have executed).
	s.bus.ActivatePast(c)
	// After ActivatePast nothing deferred is ready before c; per-core
	// activation probes are needed only when the earliest registered ready
	// is exactly c.
	actNow := s.bus.DefMin() == c
	// The bus wake is always <= freeAt while a transaction is in service
	// (NextEvent reports freeAt and nothing moves it while busy), so a
	// completion can only fall on a step where the bus is due.
	busDue := s.eq.wake[s.busID] <= c
	if busDue {
		if done := s.bus.Complete(c); done != nil {
			s.dispatch(done, c)
		}
	}
	memTicked := false
	if s.memPushed || s.eq.wake[s.memID] <= c {
		s.memPushed = false
		s.mc.Tick(c)
		memTicked = true
	}
	// Ready responses only appear in mc.Tick and persist until routed, so
	// the routing phase is provably a no-op while HasReady is false.
	if s.mc.HasReady() {
		s.routeResponses(c)
	}
	for i, core := range s.cores {
		// A deferred submission becoming ready exactly now activates in
		// its core's tick slot — where its Submit would have run.
		if actNow {
			s.bus.ActivateAt(i, c)
		}
		if s.dueCore[i] || s.eq.wake[i] <= c {
			s.dueCore[i] = false
			core.Tick(c)
			s.eq.Update(i, core.NextEvent(c+1))
		}
	}
	// Arbitration can only change state when the bus was due (completion
	// freed it, or a scheduled grant opportunity arrived) or a request was
	// submitted this step while the bus sat idle. A submission against a
	// busy bus leaves the registered wake (freeAt) valid, so both the
	// arbitration and the wake update are skipped.
	if s.bus.TakeSubmitted() && !busDue {
		busDue = s.bus.Idle()
	}
	if busDue {
		s.bus.Arbitrate(c)
		s.eq.Update(s.busID, s.bus.NextEvent(c+1))
	}
	// The controller's wake only moves when it ticked or received a push
	// this step (a grant-time push from Arbitrate's serve callback is
	// folded into the wake here — the legacy loop's mc.Tick likewise first
	// sees it at c+1).
	if memTicked || s.memPushed {
		s.memPushed = false
		s.eq.Update(s.memID, s.mc.NextEvent(c+1))
	}
	s.cycle = c + 1
	s.lastExec = c
	s.steps++
}

// primeEvents (re)registers every component's wake from its current state
// at RunUntil entry; in between runs the harness may have executed legacy
// Steps or reset statistics, so the registry is rebuilt rather than
// trusted.
func (s *System) primeEvents() {
	c := s.cycle
	for i, core := range s.cores {
		s.dueCore[i] = false
		s.eq.Update(i, core.NextEvent(c))
	}
	s.memPushed = false
	s.eq.Update(s.memID, s.mc.NextEvent(c))
	s.eq.Update(s.busID, s.bus.NextEvent(c))
}

// syncCores charges open stall spans and advances every core's read
// point to the cycle before the clock, the last cycle the legacy loop
// would have ticked, exactly as its per-cycle ticks would have, and takes
// the L1 hits of in-flight batches that issue after it out of the caches'
// statistics (Core.SyncNow); called whenever RunUntil stops, and undone
// by resumeCores when the next run starts. A run that stops on pred stops
// one cycle after its last step; one that runs out of cycles may have
// jumped over idle cycles up to maxCycles, which the legacy loop ticks.
// Deferred bus submissions already past their ready cycle are activated
// too: the legacy loop would have entered them into the pending set (and
// fired any OnSubmit hook) by now, and harnesses install hooks and read
// bus state between runs, so the run must not leave them latent.
func (s *System) syncCores() {
	if s.cycle > 0 {
		for _, core := range s.cores {
			core.SyncNow(s.cycle - 1)
		}
	}
	s.bus.ActivatePast(s.cycle)
}

// resumeCores hands every core back the L1 hits syncCores or ResetStats
// held out of its caches' statistics (Core.Resume), at the start of a
// run: while a run executes, the caches count a batch's hits when the
// batch issues.
func (s *System) resumeCores() {
	for _, core := range s.cores {
		core.Resume()
	}
}

// RunUntil steps the system until pred returns true or maxCycles elapse; it
// reports whether pred was satisfied.
//
// By default it executes on the event-driven scheduler: each component
// registers the next cycle at which it can change state (a core's issue
// latency expiring, the bus transaction completing, a memory transaction
// retiring, a TDMA slot opening) in an indexed min-heap, the clock jumps
// event to event, and each macro-step ticks only the components that are
// due — a completion additionally wakes the core it dispatched to. Cycles
// skipped are exactly the cycles in which the legacy loop would not have
// changed any simulated state; per-cycle stall counters are charged in
// closed form over the skipped span, so grant traces, gamma histograms and
// all counters are bit-identical to the Oracle engine. On saturated
// rsk workloads this cuts the executed step count by roughly the bus
// occupancy lbus.
//
// pred must be a function of simulated state (core progress, counters,
// bus/memory observations), not of Cycle() itself: the clock may jump
// several cycles at once, so a predicate triggering on a raw cycle
// threshold can be observed later than under cycle-by-cycle execution.
// Bound runs in time with maxCycles — the jump never passes it — or
// measure with the Oracle engine (RunOpts.Engine). While a run executes,
// a core's L1 statistics already count the hits of its in-flight batch; a
// predicate that needs them reads Core.Observe, which splits the batch
// as Counters does. Once RunUntil returns, the caches' Stats are exact.
func (s *System) RunUntil(pred func() bool, maxCycles uint64) bool {
	startSteps, startCycle := s.steps, s.cycle
	defer func() {
		execSteps.Add(s.steps - startSteps)
		execCycles.Add(s.cycle - startCycle)
		// A candidate period never outlives its RunUntil (ssArm rescans).
		s.ss.dropStream()
	}()
	if pred() {
		return true
	}
	s.resumeCores()
	defer s.syncCores()
	if s.engine == Oracle {
		for s.cycle < maxCycles {
			s.Step()
			if pred() {
				return true
			}
		}
		return false
	}
	if s.checkPredicates {
		s.checkPredicate(pred)
	}
	s.primeEvents()
	s.ssArm()
	for s.cycle < maxCycles {
		s.eventStep()
		// Check before jumping: harnesses read Cycle() the moment pred
		// holds, so the clock must not skip ahead past the satisfying
		// step (the jump would inflate the measured window).
		if pred() {
			return true
		}
		// Steady-state detection observes at the watched core's iteration
		// boundaries, after pred declined to stop here; a successful leap
		// advances cycle and all counters in closed form and the loop
		// continues live from the shifted state.
		if d := s.ss; d != nil && d.state != ssOff {
			if it := s.cores[s.ssWatch].Iters(); it != d.lastIters {
				d.lastIters = it
				s.ssObserve(pred, maxCycles)
			}
		}
		if next := s.eq.Min(); next > s.cycle {
			if next > maxCycles {
				next = maxCycles
			}
			s.cycle = next
		}
	}
	// pred was false after the last executed step and jumps change no
	// simulated state, so it is still false here.
	return false
}

// checkPredicate is the checkPredicates assertion: it evaluates pred once
// with the clock as-is and once with the clock temporarily pushed far into
// the future, and panics when the results differ — that predicate is a
// function of Cycle(), which RunUntil's event-driven clock jumps make
// unsafe (see the RunUntil contract). pred must be side-effect free for
// the probe to be sound, which the RunUntil contract requires anyway.
func (s *System) checkPredicate(pred func() bool) {
	base := pred()
	saved := s.cycle
	s.cycle = saved + 1<<40
	probed := pred()
	s.cycle = saved
	if probed != base {
		panic("sim: RunUntil predicate reads Cycle(); cycle-threshold predicates " +
			"can fire late under the event-driven clock — express the condition " +
			"in simulated state, pass the threshold as maxCycles, or run with " +
			"the Oracle engine")
	}
}

// setEngine selects the execution engine. Oracle also turns off the
// cores' instruction batching, so every instruction issues in its own
// tick as in the legacy loop.
func (s *System) setEngine(e Engine) {
	s.engine = e
	for _, c := range s.cores {
		c.SetNopBatching(e != Oracle)
	}
}

// SetWatchCore selects the core whose iteration boundaries the steady-state
// detector observes — the core whose progress the RunUntil predicate
// tracks (the measurement harness passes the scua's core). Default 0.
func (s *System) SetWatchCore(core int) {
	if core < 0 || core >= len(s.cores) {
		panic(fmt.Sprintf("sim: watch core %d out of range (%d cores)", core, len(s.cores)))
	}
	s.ssWatch = core
}

// Release returns the system's pooled resources to their pools for reuse:
// every cache's line arrays (shape-keyed, for the next System of the same
// configuration) and the steady-state detector. The system is unusable
// afterwards. Harnesses that
// build and discard Systems in bulk (sim.Run, and through it every sweep
// of the experiment engine) call it once the measurement is extracted;
// long-lived Systems (examples, interactive exploration) may simply not
// call it and let the garbage collector reclaim everything.
func (s *System) Release() {
	if s.ss != nil {
		s.ss.dropStream()
		ssDetectors.Put(s.ss)
		s.ss = nil
	}
	s.l2.Release()
	for _, c := range s.cores {
		c.DL1().Release()
		c.IL1().Release()
	}
}

// ResetStats clears every statistic (bus, caches, memory, core counters) so
// a measurement window excludes warmup effects. Architectural state (cache
// contents, store buffers, in-flight transactions) is preserved. Each
// core resets its own counters and L1 statistics, splitting an in-flight
// batch at the current cycle (Core.ResetCounters).
func (s *System) ResetStats() {
	s.bus.ResetStats()
	s.l2.ResetStats()
	s.mc.ResetStats()
	for _, c := range s.cores {
		c.ResetCounters(s.cycle)
	}
}
