package sim

import (
	"reflect"
	"sync/atomic"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/cpu"
	"rrbus/internal/mem"
	"rrbus/internal/statehash"
)

// Steady-state period memoization: the simulator's third engine mode, above
// the legacy cycle-by-cycle loop and the event-driven scheduler.
//
// The paper's whole methodology rests on periodicity — an rsk injecting
// requests every δ cycles against saturating contenders settles into a
// repeating grant pattern — yet the event core still executes every period
// of that pattern individually. This detector fingerprints the complete
// architectural state at the watched core's iteration boundaries and keeps
// the recent fingerprints (with observable snapshots) in a ring; when a
// fingerprint recurs, the system has entered a periodic fixed point, and
// everything that happens in one period happens identically (time-shifted)
// in every following period. The recurrence closes the first period — its
// observable delta comes straight off the ring — and one more full-state
// confirmation a period later closes the second; the two deltas must agree
// exactly, after which the detector extrapolates K whole periods in closed
// form: counters advance by K times the delta, every absolute-cycle field
// shifts by K times the period, and event-driven execution resumes —
// bit-identical to having simulated the K periods, because nothing in the
// skipped span could have differed from the verified period.
//
// K is chosen so the RunUntil target lands inside or after the first
// non-extrapolated period (the leap stops one period short of the
// predicate's firing point, which the live engine then reaches exactly),
// and is additionally clamped so no bounded core reaches its iteration
// limit mid-leap — the done transition is a state change that must execute
// live — and so the leap never passes maxCycles.
//
// The detector auto-disables whenever exact per-event observation is
// required: a user OnGrant/OnSubmit hook (which TraceLimit and OnGrant run
// options install), an engine other than Steady, or an arbiter that cannot
// digest its state.

// ssExtrapolated/ssPeriods tally cycles covered by steady-state leaps and
// whole periods leapt across every System in the process (see ExecStats).
var ssExtrapolated, ssPeriods atomic.Uint64

// Detector tuning. The ring must span at least one full period of
// observations for a recurrence to be found: with one observation per
// watched-core iteration, 32 covers every periodic kernel in the package
// (their periods are a handful of iterations at most). The observation
// budget bounds the digest overhead on workloads that never settle
// (aperiodic mixes): after ssObsBudget boundaries without a leap the
// detector switches itself off for the rest of the run.
const (
	ssRing      = 32
	ssObsBudget = 4096
)

const (
	ssOff     uint8 = iota // disarmed: no observation overhead
	ssScan                 // collecting fingerprints, looking for a recurrence
	ssConfirm              // recurrence found, verifying the second period
)

type ssRingEntry struct {
	sum   statehash.Sum
	cycle uint64
}

// ssSnapshot captures every observable the simulator accumulates — the
// quantities a leap must extrapolate. Architectural state is deliberately
// absent: the digests prove it recurs, so it needs no adjustment beyond the
// uniform time shift.
type ssSnapshot struct {
	cycle uint64
	ctr   []cpu.Counters
	sb    [][3]uint64 // Pushes, FullStalls, Drains
	dl1   []cache.Stats
	il1   []cache.Stats
	l2    cache.Stats
	bus   bus.Stats
	gamma []uint64
	cont  []uint64
	mem   mem.Stats
}

func (sn *ssSnapshot) take(s *System) {
	n := len(s.cores)
	if cap(sn.ctr) < n {
		sn.ctr = make([]cpu.Counters, n)
		sn.sb = make([][3]uint64, n)
		sn.dl1 = make([]cache.Stats, n)
		sn.il1 = make([]cache.Stats, n)
	}
	sn.ctr, sn.sb = sn.ctr[:n], sn.sb[:n]
	sn.dl1, sn.il1 = sn.dl1[:n], sn.il1[:n]
	sn.cycle = s.cycle
	for i, c := range s.cores {
		sn.ctr[i] = c.Counters()
		sb := c.StoreBuffer()
		sn.sb[i] = [3]uint64{sb.Pushes, sb.FullStalls, sb.Drains}
		sn.dl1[i] = c.DL1().Stats()
		sn.il1[i] = c.IL1().Stats()
	}
	sn.l2 = s.l2.Stats()
	sn.bus = s.bus.Stats()
	sn.gamma = append(sn.gamma[:0], s.bus.GammaHist()...)
	sn.cont = append(sn.cont[:0], s.bus.ContendersHist()...)
	sn.mem = s.mc.Stats()
}

// ssDelta is the per-period increment of every observable, in the same
// shape as ssSnapshot.
type ssDelta struct {
	cycles uint64
	ctr    []cpu.Counters
	sb     [][3]uint64
	dl1    []cache.Stats
	il1    []cache.Stats
	l2     cache.Stats
	bus    bus.Stats
	gamma  []uint64
	cont   []uint64
	mem    mem.Stats
}

func subCache(b, a cache.Stats) cache.Stats {
	return cache.Stats{
		ReadHits:    b.ReadHits - a.ReadHits,
		ReadMisses:  b.ReadMisses - a.ReadMisses,
		WriteHits:   b.WriteHits - a.WriteHits,
		WriteMisses: b.WriteMisses - a.WriteMisses,
		Evictions:   b.Evictions - a.Evictions,
		Writebacks:  b.Writebacks - a.Writebacks,
	}
}

func subCounters(b, a cpu.Counters) cpu.Counters {
	return cpu.Counters{
		Instrs:          b.Instrs - a.Instrs,
		Loads:           b.Loads - a.Loads,
		Stores:          b.Stores - a.Stores,
		Nops:            b.Nops - a.Nops,
		ALUs:            b.ALUs - a.ALUs,
		Branches:        b.Branches - a.Branches,
		Iters:           b.Iters - a.Iters,
		SBStallCycles:   b.SBStallCycles - a.SBStallCycles,
		PortStallCycles: b.PortStallCycles - a.PortStallCycles,
	}
}

func subSlice(dst, b, a []uint64) []uint64 {
	dst = dst[:0]
	for i := range b {
		dst = append(dst, b[i]-a[i])
	}
	return dst
}

// diff stores b-a into d. It reports false when the snapshots are not
// shape-compatible (a watch histogram grew between them), which aborts the
// current confirmation round — the delta would misapply.
func (d *ssDelta) diff(a, b *ssSnapshot) bool {
	if len(b.gamma) != len(a.gamma) || len(b.cont) != len(a.cont) {
		return false
	}
	n := len(b.ctr)
	if cap(d.ctr) < n {
		d.ctr = make([]cpu.Counters, n)
		d.sb = make([][3]uint64, n)
		d.dl1 = make([]cache.Stats, n)
		d.il1 = make([]cache.Stats, n)
	}
	d.ctr, d.sb = d.ctr[:n], d.sb[:n]
	d.dl1, d.il1 = d.dl1[:n], d.il1[:n]
	d.cycles = b.cycle - a.cycle
	for i := range b.ctr {
		d.ctr[i] = subCounters(b.ctr[i], a.ctr[i])
		d.sb[i] = [3]uint64{
			b.sb[i][0] - a.sb[i][0],
			b.sb[i][1] - a.sb[i][1],
			b.sb[i][2] - a.sb[i][2],
		}
		d.dl1[i] = subCache(b.dl1[i], a.dl1[i])
		d.il1[i] = subCache(b.il1[i], a.il1[i])
	}
	d.l2 = subCache(b.l2, a.l2)
	d.bus.Grants = subSlice(d.bus.Grants, b.bus.Grants, a.bus.Grants)
	d.bus.BusyCycles = subSlice(d.bus.BusyCycles, b.bus.BusyCycles, a.bus.BusyCycles)
	d.bus.WaitSum = subSlice(d.bus.WaitSum, b.bus.WaitSum, a.bus.WaitSum)
	d.bus.MaxGamma = subSlice(d.bus.MaxGamma, b.bus.MaxGamma, a.bus.MaxGamma)
	d.bus.TotalBusy = b.bus.TotalBusy - a.bus.TotalBusy
	d.gamma = subSlice(d.gamma, b.gamma, a.gamma)
	d.cont = subSlice(d.cont, b.cont, a.cont)
	d.mem = mem.Stats{
		Reads:        b.mem.Reads - a.mem.Reads,
		Writes:       b.mem.Writes - a.mem.Writes,
		RowHits:      b.mem.RowHits - a.mem.RowHits,
		RowEmpty:     b.mem.RowEmpty - a.mem.RowEmpty,
		RowConflicts: b.mem.RowConflicts - a.mem.RowConflicts,
		ChannelBusy:  b.mem.ChannelBusy - a.mem.ChannelBusy,
		MaxQueue:     b.mem.MaxQueue - a.mem.MaxQueue,
		Rejected:     b.mem.Rejected - a.mem.Rejected,
	}
	return true
}

// ssDetector is the per-System detector state. It is re-armed at every
// event-driven RunUntil entry and performs at most one leap per run. The
// snapshot ring parallels the fingerprint ring: snaps[i] holds the
// observables at the cycle ring[i] was recorded, so a recurrence against
// ring[i] yields its period's delta with no further simulation.
type ssDetector struct {
	state     uint8
	budget    int
	lastIters uint64
	ring      [ssRing]ssRingEntry
	snaps     [ssRing]ssSnapshot
	ringN     int
	ringPos   int
	period    uint64
	expect    uint64
	full      statehash.Sum
	snapPrev  ssSnapshot
	snapCur   ssSnapshot
	d1        ssDelta
	d2        ssDelta
}

// ssArm resets the detector at RunUntil entry, disarming it when exact
// per-event observation is required: an external grant/submit hook (the
// harness installs one for TraceLimit and OnGrant runs), the Event
// engine, or an arbiter whose state cannot be digested. The watch
// histograms are native bus counters, not hooks, so γ collection keeps the
// fast path available.
func (s *System) ssArm() {
	d := &s.ss
	if s.engine != Steady ||
		s.bus.OnGrant != nil || s.bus.OnSubmit != nil || !s.bus.CanDigest() {
		d.state = ssOff
		return
	}
	d.state = ssScan
	d.ringN, d.ringPos = 0, 0
	d.budget = ssObsBudget
	d.lastIters = s.cores[s.ssWatch].Iters()
}

// ssDigest fingerprints the complete architectural state, every absolute
// cycle expressed relative to the current cycle so recurrences hash equal
// anywhere on the time axis. The cache digests walk only occupied sets
// (cost proportional to the working set), which is what makes a full
// fingerprint at every observation affordable. Equal digests at two cycles
// mean the system's entire future evolution from those cycles is identical
// modulo the time shift — the simulator is deterministic and every
// component's dynamics depend only on cycle differences (TDMA's frame
// phase is folded into the arbiter digest).
func (s *System) ssDigest() statehash.Sum {
	h := statehash.New()
	now := s.cycle
	for _, c := range s.cores {
		c.DigestState(&h, now)
	}
	s.bus.DigestState(&h, now)
	s.mc.DigestState(&h, now)
	// The wake registry is scheduler state: a stale-but-valid wake changes
	// when a component is next ticked, so two states only evolve
	// identically if their registered wakes match too. All finite wakes are
	// >= now after a step (due components were just ticked and re-registered).
	for i := 0; i < s.eq.Len(); i++ {
		if w := s.eq.Wake(i); w == infinity {
			h.Add(infinity)
		} else {
			h.Add(w - now)
		}
	}
	for _, c := range s.cores {
		c.DL1().DigestState(&h)
		c.IL1().DigestState(&h)
	}
	s.l2.DigestState(&h)
	return h.Sum()
}

// ssApply adds k times the per-period delta into every accumulated
// observable. k is modular: calling again with -k reverts exactly (all
// sinks are += value*k in uint64 arithmetic), which is how predicate
// probing explores future periods without touching architectural state.
func (s *System) ssApply(d *ssDelta, k uint64) {
	for i, c := range s.cores {
		c.AddCounters(d.ctr[i], k)
		sb := c.StoreBuffer()
		sb.Pushes += d.sb[i][0] * k
		sb.FullStalls += d.sb[i][1] * k
		sb.Drains += d.sb[i][2] * k
		c.DL1().AddStats(d.dl1[i], k)
		c.IL1().AddStats(d.il1[i], k)
	}
	s.l2.AddStats(d.l2, k)
	s.bus.AddStats(d.bus, k)
	s.bus.AddWatchHists(d.gamma, d.cont, k)
	s.mc.AddStats(d.mem, k)
}

// ssObserve runs the detector at a watched-core iteration boundary (the
// event loop calls it after pred returned false). Scanning pushes full
// fingerprints (with observable snapshots) through the ring; a recurrence
// against a ring entry closes the first period — its delta is the
// difference to that entry's snapshot — and promotes to confirmation,
// which requires the same fingerprint exactly one period later AND an
// identical second delta, after which the leap executes. A digest or delta
// mismatch drops back to scanning with the observation history intact:
// fingerprints are full-state, so a failed confirmation never re-latches
// the same false period.
func (s *System) ssObserve(pred func() bool, maxCycles uint64) {
	d := &s.ss
	if d.budget--; d.budget < 0 {
		d.state = ssOff
		return
	}
	now := s.cycle
	sum := s.ssDigest()
	if d.state == ssConfirm {
		if now != d.expect {
			// Intermediate boundary inside the candidate period: keep
			// recording so longer-period matches stay available. (Past the
			// expected cycle is unreachable for a true recurrence —
			// determinism replays the boundary pattern — so treat it as a
			// failed candidate.)
			if now > d.expect {
				d.state = ssScan
			}
			d.push(s, sum, now)
			return
		}
		if sum == d.full {
			d.snapCur.take(s)
			// The two deltas must agree exactly. This is also what makes
			// extrapolating the max-type fields (bus MaxGamma, mem
			// MaxQueue) sound — a state-identical period replays the same
			// values, so a max can only move in its first occurrence; a
			// nonzero first-interval delta therefore cannot repeat and
			// fails this comparison, while the zero delta it leaves behind
			// is safe to multiply.
			if d.d2.diff(&d.snapPrev, &d.snapCur) && reflect.DeepEqual(&d.d1, &d.d2) {
				s.ssLeap(pred, maxCycles)
				return
			}
		}
		d.state = ssScan
		d.push(s, sum, now)
		return
	}
	for i := 0; i < d.ringN; i++ { // newest first: prefer the shortest period
		j := (d.ringPos - 1 - i + ssRing) % ssRing
		e := &d.ring[j]
		if e.sum == sum {
			// Snapshot the current point before pushing: the push may
			// overwrite the matched slot when it is the ring's oldest.
			d.snapPrev.take(s)
			if d.d1.diff(&d.snaps[j], &d.snapPrev) {
				d.state = ssConfirm
				d.period = now - e.cycle
				d.expect = now + d.period
				d.full = sum
				d.push(s, sum, now)
				return
			}
			// Shape drift (a watch histogram grew inside the interval):
			// not a usable period; keep scanning.
			break
		}
	}
	d.push(s, sum, now)
}

// push records one fingerprint and its observable snapshot in the
// recurrence ring.
func (d *ssDetector) push(s *System, sum statehash.Sum, cycle uint64) {
	d.ring[d.ringPos] = ssRingEntry{sum: sum, cycle: cycle}
	d.snaps[d.ringPos].take(s)
	d.ringPos = (d.ringPos + 1) % ssRing
	if d.ringN < ssRing {
		d.ringN++
	}
}

// ssLeap extrapolates K whole periods at the confirmation point. K is
// the largest period count that (a) keeps the clock at or before maxCycles,
// (b) leaves every bounded core strictly short of its iteration limit, and
// (c) stops before the period in which the predicate first fires — probed
// by applying the observable deltas (no time shift; the predicate contract
// bans reading Cycle()) and reverting. The live engine then reaches the
// predicate's exact firing step itself, so results are bit-identical to
// never having leapt.
func (s *System) ssLeap(pred func() bool, maxCycles uint64) {
	d := &s.ss
	d.state = ssOff // one leap per RunUntil; the rest of the run is live
	p := d.period
	kCap := (maxCycles - s.cycle) / p
	for i, c := range s.cores {
		di := d.d1.ctr[i].Iters
		mi := c.MaxIters()
		if di == 0 || mi == 0 {
			continue
		}
		if b := (mi - 1 - c.Iters()) / di; b < kCap {
			kCap = b
		}
	}
	if kCap == 0 {
		return
	}
	probe := func(k uint64) bool {
		s.ssApply(&d.d1, k)
		ok := pred()
		s.ssApply(&d.d1, -k)
		return ok
	}
	var k uint64
	switch {
	case probe(1):
		// The predicate fires within the very next period; a leap of zero
		// periods is no leap.
		return
	case !probe(kCap):
		k = kCap
	default:
		// Smallest satisfying period count k0 in (1, kCap]; leap to k0-1.
		// Predicates are monotone threshold conditions on accumulating
		// state (the RunUntil contract), so the bisection is exact.
		lo, hi := uint64(1), kCap
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if probe(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		k = lo
	}
	shift := k * p
	s.ssApply(&d.d1, k)
	for _, c := range s.cores {
		c.ShiftTime(shift)
	}
	s.bus.ShiftTime(shift)
	s.mc.ShiftTime(shift)
	s.eq.ShiftWakes(shift)
	s.cycle += shift
	s.lastExec += shift
	ssExtrapolated.Add(shift)
	ssPeriods.Add(k)
}
