package sim

import (
	"slices"
	"sync"
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
// fingerprint recurs, it proposes a period. The recurrence (T1) closes the
// first period — its observable delta comes straight off the ring — and
// the detector records the exact canonical word stream of the full state
// there. One period later (T1 + P) it requires the same fingerprint, a
// second delta equal to the first, and the same exact stream. Equal
// streams mean equal state, so by determinism everything that happened
// from T1 to T1 + P happens identically (time-shifted) in every following
// period, whatever fingerprint proposed the period: a fingerprint
// collision costs one failed confirmation, never a wrong leap. The
// detector then extrapolates K whole periods in closed form: counters
// advance by K times the delta, every absolute-cycle field shifts by K
// times the period, and event-driven execution resumes — bit-identical to
// having simulated the K periods, because nothing in the skipped span
// could have differed from the verified period.
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
// whole periods leapt across every System in the process (see ExecStats);
// ssRejected counts candidate periods whose fingerprints and deltas
// agreed but whose exact state streams did not.
var ssExtrapolated, ssPeriods, ssRejected atomic.Uint64

// ssFingerprint, when set, replaces ssDigest as the fingerprint that
// proposes periods. Only tests set it, to a deliberately weak one, to show
// that the exact confirmation alone keeps leaps correct.
var ssFingerprint func(*System) statehash.Sum

// ssStreams pools the exact-state recordings: a System holds one only
// while a candidate period awaits confirmation.
var ssStreams = sync.Pool{New: func() any { return new([]uint64) }}

// ssDetectors pools the detectors themselves (a ring of snapshots, about
// 14 KB before their slices): a System takes one at the first Steady run
// that arms it and Release hands it back, snapshot storage included, so
// Event and Oracle Systems never allocate one.
var ssDetectors = sync.Pool{New: func() any { return new(ssDetector) }}

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

// ssWords sizes the stack buffer an observation collects the cores', bus,
// memory controller and wake registry words in (appendState); a larger
// platform state spills to the heap, which costs time, not correctness.
const ssWords = 512

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
// absent: the exact state streams prove it recurs, so it needs no
// adjustment beyond the uniform time shift.
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
		sn.ctr[i], sn.dl1[i], sn.il1[i] = c.Observe()
		sb := c.StoreBuffer()
		sn.sb[i] = [3]uint64{sb.Pushes, sb.FullStalls, sb.Drains}
	}
	sn.l2 = s.l2.Stats()
	s.bus.StatsInto(&sn.bus)
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

// equal reports whether d and o hold the same delta, field by field over
// everything diff fills.
func (d *ssDelta) equal(o *ssDelta) bool {
	return d.cycles == o.cycles &&
		slices.Equal(d.ctr, o.ctr) &&
		slices.Equal(d.sb, o.sb) &&
		slices.Equal(d.dl1, o.dl1) &&
		slices.Equal(d.il1, o.il1) &&
		d.l2 == o.l2 &&
		slices.Equal(d.bus.Grants, o.bus.Grants) &&
		slices.Equal(d.bus.BusyCycles, o.bus.BusyCycles) &&
		slices.Equal(d.bus.WaitSum, o.bus.WaitSum) &&
		slices.Equal(d.bus.MaxGamma, o.bus.MaxGamma) &&
		d.bus.TotalBusy == o.bus.TotalBusy &&
		slices.Equal(d.gamma, o.gamma) &&
		slices.Equal(d.cont, o.cont) &&
		d.mem == o.mem
}

// maxesHeld reports whether the period left every high-water mark (bus
// MaxGamma, mem MaxQueue) where it was. A period that starts and ends in
// the same state replays its values in every later period, so from its
// end on no maximum moves again; extrapolating a delta is exact only when
// its max-type fields are zero.
func (d *ssDelta) maxesHeld() bool {
	for _, v := range d.bus.MaxGamma {
		if v != 0 {
			return false
		}
	}
	return d.mem.MaxQueue == 0
}

// ssDetector is the per-System detector state, taken from ssDetectors. It
// is re-armed at every event-driven RunUntil entry and performs at most
// one leap per run. The snapshot ring parallels the fingerprint ring:
// snaps[i] holds the observables at the cycle ring[i] was recorded, so a
// recurrence against ring[i] yields its period's delta with no further
// simulation.
type ssDetector struct {
	state     uint8
	budget    int
	lastIters uint64
	ring      [ssRing]ssRingEntry
	snaps     [ssRing]ssSnapshot
	ringN     int
	ringPos   int
	period    uint64
	floor     uint64 // longest period the exact comparison refuted
	expect    uint64
	full      statehash.Sum
	stream    *[]uint64 // the exact state at T1, from ssStreams
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
	if s.engine != Steady ||
		s.bus.OnGrant != nil || s.bus.OnSubmit != nil || !s.bus.CanDigest() {
		if s.ss != nil {
			s.ss.state = ssOff
		}
		return
	}
	if s.ss == nil {
		s.ss = ssDetectors.Get().(*ssDetector)
	}
	d := s.ss
	d.state = ssScan
	d.ringN, d.ringPos = 0, 0
	d.floor = 0
	d.budget = ssObsBudget
	d.lastIters = s.cores[s.ssWatch].Iters()
}

// appendState appends the canonical word stream of every core, the bus,
// the memory controller and the wake registry to buf, every absolute cycle
// expressed relative to the current cycle so recurrences produce equal
// streams anywhere on the time axis. The caches' streams follow in
// ssRecord and ssMatch; together they are the full state, and equal full
// streams at two cycles mean the system's entire future evolution from
// those cycles is identical modulo the time shift — the simulator is
// deterministic and every component's dynamics depend only on cycle
// differences (TDMA's frame phase is part of the arbiter's word).
func (s *System) appendState(buf []uint64) []uint64 {
	now := s.cycle
	for _, c := range s.cores {
		buf = c.AppendState(buf, now)
	}
	buf = s.bus.AppendState(buf, now)
	buf = s.mc.AppendState(buf, now)
	// The wake registry is scheduler state: a stale-but-valid wake changes
	// when a component is next ticked, so two states only evolve
	// identically if their registered wakes match too. All finite wakes are
	// >= now after a step (due components were just ticked and re-registered).
	for i := 0; i < s.eq.Len(); i++ {
		if w := s.eq.Wake(i); w == infinity {
			buf = append(buf, infinity)
		} else {
			buf = append(buf, w-now)
		}
	}
	return buf
}

// ssDigest is the fingerprint that proposes periods: the hash of words
// (appendState's) and every cache's incremental digest, which costs in
// proportion to the sets that changed since the previous observation.
func (s *System) ssDigest(words []uint64) statehash.Sum {
	h := statehash.New()
	h.AddWords(words)
	for _, c := range s.cores {
		c.DL1().DigestState(&h)
		c.IL1().DigestState(&h)
	}
	s.l2.DigestState(&h)
	return h.Sum()
}

// ssRecord stores the full state stream at a candidate's first end (T1):
// words, then every cache walked in full.
func (s *System) ssRecord(words []uint64) {
	d := s.ss
	if d.stream == nil {
		d.stream = ssStreams.Get().(*[]uint64)
	}
	n := len(words) + s.l2.StateLen()
	for _, c := range s.cores {
		n += c.DL1().StateLen() + c.IL1().StateLen()
	}
	buf := append(slices.Grow((*d.stream)[:0], n), words...)
	for _, c := range s.cores {
		buf = c.DL1().AppendState(buf)
		buf = c.IL1().AppendState(buf)
	}
	*d.stream = s.l2.AppendState(buf)
}

// ssMatch reports whether the full state stream now (words, then every
// cache) equals the one ssRecord stored, comparing each cache while it
// walks.
func (s *System) ssMatch(words []uint64) bool {
	rec := *s.ss.stream
	if len(rec) < len(words) || !slices.Equal(rec[:len(words)], words) {
		return false
	}
	rec = rec[len(words):]
	ok := true
	for _, c := range s.cores {
		if rec, ok = c.DL1().MatchState(rec); !ok {
			return false
		}
		if rec, ok = c.IL1().MatchState(rec); !ok {
			return false
		}
	}
	rec, ok = s.l2.MatchState(rec)
	return ok && len(rec) == 0
}

// dropStream hands a held recording back to the pool. A System without a
// detector holds none.
func (d *ssDetector) dropStream() {
	if d != nil && d.stream != nil {
		ssStreams.Put(d.stream)
		d.stream = nil
	}
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
// event loop calls it after pred returned false). Scanning pushes
// fingerprints (with observable snapshots) through the ring; a recurrence
// against a ring entry closes the first period — its delta is the
// difference to that entry's snapshot — records the exact state stream and
// promotes to confirmation. Confirmation exactly one period later requires
// the same fingerprint, an identical second delta and an identical exact
// stream, after which the leap executes. Any mismatch drops back to
// scanning with the observation history intact.
func (s *System) ssObserve(pred func() bool, maxCycles uint64) {
	d := s.ss
	if d.budget--; d.budget < 0 {
		d.state = ssOff
		d.dropStream()
		return
	}
	now := s.cycle
	var buf [ssWords]uint64
	words := s.appendState(buf[:0])
	var sum statehash.Sum
	if ssFingerprint != nil {
		sum = ssFingerprint(s)
	} else {
		sum = s.ssDigest(words)
	}
	if d.state == ssConfirm {
		if now != d.expect {
			// Intermediate boundary inside the candidate period: keep
			// recording so longer-period matches stay available. (Past the
			// expected cycle is unreachable for a true recurrence —
			// determinism replays the boundary pattern — so treat it as a
			// failed candidate.)
			if now > d.expect {
				d.state = ssScan
				d.dropStream()
			}
			d.push(s, sum, now)
			return
		}
		if sum == d.full {
			d.snapCur.take(s)
			// The two deltas must agree exactly and leave every maximum
			// where it was: a state-identical period replays the same
			// values, so a max can only move in its first occurrence, and
			// multiplying a nonzero max delta would be wrong. Only then is
			// the exact state compared, the one walk a candidate pays.
			if d.d2.diff(&d.snapPrev, &d.snapCur) && d.d1.equal(&d.d2) && d.d2.maxesHeld() {
				if s.ssMatch(words) {
					d.dropStream()
					s.ssLeap(pred, maxCycles)
					return
				}
				// The fingerprint recurs at this period but the state does
				// not: propose only longer periods from now on, or a weak
				// fingerprint would re-propose this one forever.
				ssRejected.Add(1)
				d.floor = d.period
			}
		}
		d.state = ssScan
		d.dropStream()
		d.push(s, sum, now)
		return
	}
	for i := 0; i < d.ringN; i++ { // newest first: prefer the shortest period
		j := (d.ringPos - 1 - i + ssRing) % ssRing
		e := &d.ring[j]
		if e.sum == sum && now-e.cycle > d.floor {
			// Snapshot the current point before pushing: the push may
			// overwrite the matched slot when it is the ring's oldest.
			d.snapPrev.take(s)
			if d.d1.diff(&d.snaps[j], &d.snapPrev) {
				d.state = ssConfirm
				d.period = now - e.cycle
				d.expect = now + d.period
				d.full = sum
				s.ssRecord(words)
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
	d := s.ss
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
