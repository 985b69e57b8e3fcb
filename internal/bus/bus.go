package bus

import "fmt"

// Kind classifies bus transactions. The kind determines how the system
// dispatches the completion (unblock a core, free a store-buffer entry,
// forward to memory, deliver refill data).
type Kind uint8

const (
	// KindLoad is a demand data read issued on a DL1 load miss.
	KindLoad Kind = iota
	// KindIFetch is an instruction line read issued on an IL1 miss.
	KindIFetch
	// KindStore is a write-through store drained from a store buffer.
	KindStore
	// KindResp is a refill response from the memory controller back to the
	// requesting core/L2 (split-transaction second half of an L2 miss).
	KindResp
)

// String returns a short mnemonic for the transaction kind.
func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindIFetch:
		return "ifetch"
	case KindStore:
		return "store"
	case KindResp:
		return "resp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one bus transaction from submission to completion. Exactly one
// request per port may be outstanding at the bus; cores queue additional
// work (e.g. store-buffer entries) internally and resubmit.
type Request struct {
	// Port is the submitting bus master (cores 0..Nc-1, memory controller
	// last).
	Port int
	// Kind classifies the transaction.
	Kind Kind
	// Addr is the line-aligned target address.
	Addr uint64
	// OrigPort is the core on whose behalf a KindResp travels (responses
	// are submitted by the memory controller port).
	OrigPort int
	// Ready is the cycle the request became ready (set by Submit).
	Ready uint64
	// Grant is the cycle the bus was granted (set at arbitration).
	Grant uint64
	// Occupancy is the number of cycles the transaction holds the bus
	// (set at grant by the Serve callback).
	Occupancy int
	// Hit records the L2 lookup outcome for load/ifetch/store kinds
	// (set at grant by the Serve callback).
	Hit bool
	// Tag carries caller-defined context (e.g. memory transaction ids).
	Tag uint64
}

// Gamma returns the contention delay the request suffered: cycles from ready
// to grant. This is the γ of the paper.
func (r *Request) Gamma() uint64 { return r.Grant - r.Ready }

// Serve is invoked at grant time. It must perform the L2-side lookup,
// set r.Hit as appropriate, and return the bus occupancy in cycles
// (occupancy >= 1).
type Serve func(r *Request) (occupancy int)

// Stats aggregates bus activity over a measurement window.
type Stats struct {
	// Grants counts transactions granted, per port.
	Grants []uint64
	// BusyCycles counts occupancy cycles attributed to each port
	// (NGMP counter 0x17, per-core bus utilization).
	BusyCycles []uint64
	// TotalBusy counts all occupancy cycles (NGMP counter 0x18).
	TotalBusy uint64
	// WaitSum accumulates γ per port, so WaitSum[p]/Grants[p] is the mean
	// contention delay.
	WaitSum []uint64
	// MaxGamma records the worst contention delay observed per port: the
	// measured ubdm of the naive approach when the port runs an rsk.
	MaxGamma []uint64
}

func newStats(n int) Stats {
	return Stats{
		Grants:     make([]uint64, n),
		BusyCycles: make([]uint64, n),
		WaitSum:    make([]uint64, n),
		MaxGamma:   make([]uint64, n),
	}
}

// portStat is the internal per-port accumulator behind Stats (see Bus.pstats).
type portStat struct {
	grants, busy, waitSum, maxGamma uint64
}

// Utilization returns TotalBusy divided by the window length.
func (s Stats) Utilization(windowCycles uint64) float64 {
	if windowCycles == 0 {
		return 0
	}
	return float64(s.TotalBusy) / float64(windowCycles)
}

// PortUtilization returns the share of the window the bus spent serving
// port p.
func (s Stats) PortUtilization(p int, windowCycles uint64) float64 {
	if windowCycles == 0 {
		return 0
	}
	return float64(s.BusyCycles[p]) / float64(windowCycles)
}

// Bus is the shared interconnect. It is driven by the owning system in three
// phases per cycle: Complete, (clients submit), Arbitrate.
type Bus struct {
	nports int
	arb    Arbiter
	serve  Serve
	// hinter is arb's SlotScheduler refinement when it has one (cached at
	// construction so NextEvent avoids a per-call type assertion).
	hinter SlotScheduler

	heads   []*Request
	pending []bool
	npend   int

	current *Request
	freeAt  uint64

	// Deferred submissions (SubmitAt): a client that knows at decision time
	// that its request becomes ready at a future cycle registers it here
	// instead of re-attempting every cycle. defReady[port] is the ready
	// cycle (noDeferred = none), defReq the request, ndef the live count.
	// Activation — the point the entry joins the pending set and fires
	// OnSubmit — happens at the registered ready cycle (ActivateAt) or, if
	// the owning system executed no step at that cycle, at the next
	// executed step (ActivatePast), in (ready, port) order either way, so
	// the pending set evolves exactly as if the client had called Submit
	// at the ready cycle.
	defReq   []*Request
	defReady []uint64
	ndef     int
	// defMin caches the minimum registered ready cycle (noDeferred when
	// ndef == 0) so the owning system's per-step activation probes are a
	// single compare instead of a port scan.
	defMin uint64

	// submitted is a dirty flag set by Submit/SubmitAt and drained by
	// TakeSubmitted; the event-driven scheduler uses it to skip the
	// arbitration phase (and the wake re-registration it performs) on steps
	// where no new request arrived and no bus wakeup was due.
	submitted bool

	// Per-port grant statistics accumulate in one flat struct array so the
	// per-grant bookkeeping touches a single cache line per port; Stats()
	// assembles the exported slice-of-arrays view on demand.
	pstats    []portStat
	totalBusy uint64

	// Native watch collection (see Watch): when watch >= 0, grants on that
	// port feed gammaHist (γ = Grant - Ready, response kinds excluded) and
	// submissions on it feed contHist (ready contenders, clamped into the
	// last bucket). Collecting these inside the bus instead of via the
	// OnSubmit/OnGrant hooks keeps the hooks free for genuinely external
	// observers — the steady-state detector treats any non-nil hook as "the
	// caller needs every event" and disables itself, while the native
	// histograms are plain counters it can snapshot and extrapolate.
	watch     int
	gammaHist []uint64
	contHist  []uint64

	// OnSubmit, if non-nil, is called when a request is submitted;
	// readyContenders is the number of other ports that currently have a
	// request pending or in service (the Fig. 6(a) statistic).
	OnSubmit func(r *Request, readyContenders int)
	// OnGrant, if non-nil, is called when a request is granted, after its
	// Grant/Occupancy/Hit fields are filled in.
	OnGrant func(r *Request)
}

// New builds a bus with nports masters, the given arbiter and the grant-time
// service callback.
func New(nports int, arb Arbiter, serve Serve) (*Bus, error) {
	if nports <= 0 {
		return nil, fmt.Errorf("bus: need at least one port, got %d", nports)
	}
	if arb == nil || serve == nil {
		return nil, fmt.Errorf("bus: arbiter and serve callback are required")
	}
	b := &Bus{
		nports:   nports,
		arb:      arb,
		serve:    serve,
		heads:    make([]*Request, nports),
		pending:  make([]bool, nports),
		defReq:   make([]*Request, nports),
		defReady: make([]uint64, nports),
		defMin:   noDeferred,
		pstats:   make([]portStat, nports),
		watch:    -1,
	}
	for i := range b.defReady {
		b.defReady[i] = noDeferred
	}
	b.hinter, _ = arb.(SlotScheduler)
	return b, nil
}

// noDeferred marks a port with no deferred submission registered.
const noDeferred = ^uint64(0)

// Ports returns the number of masters.
func (b *Bus) Ports() int { return b.nports }

// Arbiter returns the installed arbitration policy.
func (b *Bus) Arbiter() Arbiter { return b.arb }

// Stats returns a copy of the accumulated statistics.
func (b *Bus) Stats() Stats {
	s := newStats(b.nports)
	b.StatsInto(&s)
	return s
}

// StatsInto copies the accumulated statistics into s, reusing the storage
// of its slices when they are large enough, so a caller that samples the
// statistics repeatedly allocates them once.
func (b *Bus) StatsInto(s *Stats) {
	n := b.nports
	if cap(s.Grants) < n || cap(s.BusyCycles) < n || cap(s.WaitSum) < n || cap(s.MaxGamma) < n {
		*s = newStats(n)
	}
	s.Grants, s.BusyCycles = s.Grants[:n], s.BusyCycles[:n]
	s.WaitSum, s.MaxGamma = s.WaitSum[:n], s.MaxGamma[:n]
	for p, ps := range b.pstats {
		s.Grants[p] = ps.grants
		s.BusyCycles[p] = ps.busy
		s.WaitSum[p] = ps.waitSum
		s.MaxGamma[p] = ps.maxGamma
	}
	s.TotalBusy = b.totalBusy
}

// ResetStats zeroes the statistics (in-flight transactions are unaffected),
// so measurement windows can exclude warmup.
func (b *Bus) ResetStats() {
	clear(b.pstats)
	b.totalBusy = 0
}

// Watch enables native histogram collection for one port: gammaHist[g]
// counts the port's granted requests (responses excluded) that suffered
// exactly g cycles of contention, growing on demand; contHist[i] counts its
// submissions that found i other ports with a request pending or in service,
// clamped into the last bucket. gammaCap and contCap size the initial
// slices (contCap must be >= 1). The measurement harness installs a watch
// on the scua's port when γ collection is requested; unlike an OnGrant
// hook, a watch does not force per-event execution, so the steady-state
// fast path stays available.
func (b *Bus) Watch(port, gammaCap, contCap int) {
	if contCap < 1 {
		panic(fmt.Sprintf("bus: watch needs contCap >= 1, got %d", contCap))
	}
	b.watch = port
	b.gammaHist = make([]uint64, gammaCap)
	b.contHist = make([]uint64, contCap)
}

// GammaHist returns the watched port's contention histogram (nil when no
// watch is installed). The slice is live; callers taking ownership should
// do so only after the run finishes.
func (b *Bus) GammaHist() []uint64 { return b.gammaHist }

// ContendersHist returns the watched port's ready-contender histogram (nil
// when no watch is installed).
func (b *Bus) ContendersHist() []uint64 { return b.contHist }

// HasPending reports whether port already has an outstanding request
// (pending, deferred or in service).
func (b *Bus) HasPending(port int) bool {
	return b.pending[port] || b.defReady[port] != noDeferred ||
		(b.current != nil && b.current.Port == port)
}

// InService returns the transaction currently holding the bus, or nil.
func (b *Bus) InService() *Request { return b.current }

// Submit registers r as port r.Port's outstanding request, ready at cycle.
// It panics if the port already has one: that is a client sequencing bug,
// not a runtime condition.
func (b *Bus) Submit(r *Request, cycle uint64) {
	if b.HasPending(r.Port) {
		panic(fmt.Sprintf("bus: port %d submitted %s while busy", r.Port, r.Kind))
	}
	b.submitReady(r, cycle)
}

// submitReady enters r into the pending set with the given ready cycle —
// the shared tail of Submit and deferred activation.
func (b *Bus) submitReady(r *Request, ready uint64) {
	r.Ready = ready
	b.heads[r.Port] = r
	b.pending[r.Port] = true
	b.npend++
	b.submitted = true
	if b.OnSubmit != nil || r.Port == b.watch {
		// Other ports with a request pending: npend counts them plus the
		// one just registered; the in-service transaction (no longer in
		// pending) adds one when it belongs to another port.
		n := b.npend - 1
		if b.current != nil && b.current.Port != r.Port {
			n++
		}
		if r.Port == b.watch {
			i := n
			if i >= len(b.contHist) {
				i = len(b.contHist) - 1
			}
			b.contHist[i]++
		}
		if b.OnSubmit != nil {
			b.OnSubmit(r, n)
		}
	}
}

// SubmitAt registers r as port r.Port's outstanding request becoming ready
// at a future cycle. The caller asserts that nothing can claim the port
// before then (for a core: the store buffer is empty and the pipeline is
// blocked on this very miss), so the submission that Submit would perform
// at the ready cycle is fully determined now. The request joins the
// pending set — and OnSubmit fires — at activation, which the owning
// system's step loop performs at the ready cycle or folds into the next
// executed step; Ready is stamped with the registered ready cycle either
// way, so grants, gammas and contender counts are identical to a Submit
// at that cycle. This is what lets the event-driven scheduler skip the
// issue step entirely.
func (b *Bus) SubmitAt(r *Request, ready uint64) {
	if b.HasPending(r.Port) {
		panic(fmt.Sprintf("bus: port %d deferred %s while busy", r.Port, r.Kind))
	}
	b.defReq[r.Port] = r
	b.defReady[r.Port] = ready
	b.ndef++
	if ready < b.defMin {
		b.defMin = ready
	}
	// The dirty flag makes the event scheduler re-register the bus wake
	// (NextEvent folds the deferred ready in when the bus is free).
	b.submitted = true
}

// HasDeferred reports whether any deferred submission is registered.
func (b *Bus) HasDeferred() bool { return b.ndef > 0 }

// ActivateAt activates port's deferred submission if it becomes ready
// exactly at cycle. The owning system calls it in its per-core phase, in
// core id order, immediately before each core's tick slot — the slot in
// which that core's Submit would have executed — so same-cycle submissions
// interleave exactly as they would without deferral.
func (b *Bus) ActivateAt(port int, cycle uint64) {
	if b.defReady[port] == cycle {
		b.activate(port, cycle)
	}
}

// ActivatePast activates every deferred submission whose ready cycle has
// already passed, in (ready, port) order — the order the owning Submit
// calls would have executed in had a step run at each ready cycle. The
// system calls it at the top of each step (before completions), so an
// activation the clock jumped over still precedes everything that happens
// this cycle, exactly as its ready-cycle submission preceded them. The
// common no-op case (every registered ready is at or past cycle) is a
// single inlined compare against the cached minimum.
func (b *Bus) ActivatePast(cycle uint64) {
	if b.defMin < cycle {
		b.activatePast(cycle)
	}
}

func (b *Bus) activatePast(cycle uint64) {
	for b.ndef > 0 {
		best := -1
		bestReady := noDeferred
		for p, rdy := range b.defReady {
			if rdy < cycle && rdy < bestReady {
				best, bestReady = p, rdy
			}
		}
		if best < 0 {
			return
		}
		b.activate(best, bestReady)
	}
}

// DefMin returns the earliest registered deferred-ready cycle (noDeferred
// when there is none); the owning system uses it to skip the per-port
// activation probes on steps where no deferred entry can become ready.
func (b *Bus) DefMin() uint64 { return b.defMin }

func (b *Bus) activate(port int, ready uint64) {
	r := b.defReq[port]
	b.defReq[port] = nil
	b.defReady[port] = noDeferred
	b.ndef--
	if ready == b.defMin {
		// Recompute the cached minimum; ndef is tiny (≤ ports), so a scan
		// on the rare multi-deferred case beats maintaining a heap.
		m := noDeferred
		if b.ndef > 0 {
			for _, rdy := range b.defReady {
				if rdy < m {
					m = rdy
				}
			}
		}
		b.defMin = m
	}
	b.submitReady(r, ready)
}

// Complete finishes the in-service transaction if its occupancy ends at or
// before cycle, returning it (or nil). The owning system dispatches the
// completion effects (data return, store-entry free, memory forward).
func (b *Bus) Complete(cycle uint64) *Request {
	if b.current == nil || cycle < b.freeAt {
		return nil
	}
	done := b.current
	b.current = nil
	return done
}

// Arbitrate grants the bus at cycle if it is free and a request is pending
// under the installed policy. The granted request is returned (or nil).
func (b *Bus) Arbitrate(cycle uint64) *Request {
	if b.current != nil || b.npend == 0 {
		return nil
	}
	port, ok := b.arb.Pick(cycle, b.pending)
	if !ok {
		return nil
	}
	r := b.heads[port]
	b.heads[port] = nil
	b.pending[port] = false
	b.npend--
	r.Grant = cycle
	r.Occupancy = b.serve(r)
	if r.Occupancy < 1 {
		panic(fmt.Sprintf("bus: serve returned occupancy %d for %s", r.Occupancy, r.Kind))
	}
	b.current = r
	b.freeAt = cycle + uint64(r.Occupancy)
	b.arb.Granted(port, cycle)

	g := r.Gamma()
	occ := uint64(r.Occupancy)
	ps := &b.pstats[port]
	ps.grants++
	ps.busy += occ
	ps.waitSum += g
	if g > ps.maxGamma {
		ps.maxGamma = g
	}
	b.totalBusy += occ
	if port == b.watch && r.Kind != KindResp {
		gi := int(g)
		if gi >= len(b.gammaHist) {
			grown := make([]uint64, 2*gi+1)
			copy(grown, b.gammaHist)
			b.gammaHist = grown
		}
		b.gammaHist[gi]++
	}
	if b.OnGrant != nil {
		b.OnGrant(r)
	}
	return r
}

// Drain reports whether the bus is completely idle: nothing pending,
// nothing deferred and nothing in service.
func (b *Bus) Drain() bool { return b.current == nil && b.npend == 0 && b.ndef == 0 }

// TakeSubmitted reports whether any request was submitted since the last
// call, clearing the flag. The event scheduler uses it to decide whether
// the arbitration phase can be skipped this step.
func (b *Bus) TakeSubmitted() bool {
	s := b.submitted
	b.submitted = false
	return s
}

// Idle reports whether no transaction currently holds the bus (requests may
// still be pending arbitration).
func (b *Bus) Idle() bool { return b.current == nil }

// NextEvent returns the earliest cycle at or after cycle at which the bus
// might change state: the in-service transaction's completion, the next
// grant opportunity while requests are pending, or ^uint64(0) when the
// bus is completely idle. A free bus with pending requests normally
// reports the given cycle itself (work-conserving arbiters grant
// immediately, so that state only persists for one arbitration); when the
// arbiter schedules slots (SlotScheduler), the hint jumps straight to the
// next eligible grant cycle for the current pending set. Used by the
// simulator's event-driven scheduler.
func (b *Bus) NextEvent(cycle uint64) uint64 {
	if b.current != nil {
		// freeAt also covers deferred submissions becoming ready while the
		// transaction is in service: they could not be granted before the
		// bus frees, and ActivatePast enters them (with their registered
		// Ready) before the completion is processed at that step.
		if b.freeAt < cycle {
			return cycle
		}
		return b.freeAt
	}
	// A free bus must wake when a deferred submission becomes ready:
	// activation and grant happen at that cycle.
	next := b.defMin
	if next < cycle {
		next = cycle
	}
	if b.npend > 0 {
		grant := cycle
		if b.hinter != nil {
			if h := b.hinter.NextEligible(cycle, b.pending); h > cycle {
				grant = h
			}
		}
		if grant < next {
			next = grant
		}
	}
	return next
}
