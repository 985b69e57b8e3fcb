package cache

import (
	"sync"

	"rrbus/internal/statehash"
)

// Line-array pooling.
//
// Every sim.System wires 2*Cores+1 caches, and each cache's dominant
// allocation is its line state: two flat arrays of sets*ways entries
// (the shared L2 alone is 8K lines on the reference platform). Sweep
// workloads build and discard thousands of Systems, so these arrays
// dominate the allocation profile of every figure and derivation batch.
// The pool recycles them across runs, keyed by geometry (sets, ways) —
// the "config shape" — so a k-sweep's thousands of same-shaped Systems
// reuse a handful of arrays per worker instead of pressuring the garbage
// collector with ~350KB per run.
//
// Pooling is strictly opt-out-by-default: Release scrubs exactly the
// sets the run occupied before handing the arrays back, so a pooled
// cache is indistinguishable from a freshly allocated one, and nothing
// is pooled until a caller hands arrays back with Release (sim.Run does,
// via System.Release, once its measurement is extracted).

// lineArrays is one cache's worth of backing storage: the flat tag/stamp
// pair array, the cold owners array, the occupied-set tracking the exact
// state walk iterates instead of the full geometry, and the state of the
// incremental digest (see Cache and DigestState). dirtyIn and dirtySets
// queue the sets whose digested state changed since the last DigestState;
// subs holds every set's sub-digest as of that call (zero for an empty
// set) and sumA/sumB their lane-wise sums.
type lineArrays struct {
	n          int
	lines      []line
	owners     []int32
	occIn      []bool
	occSets    []int32
	mru        []uint16
	dirtyIn    []bool
	dirtySets  []int32
	subs       []statehash.Sum
	sumA, sumB uint64
}

// clearDigest resets the incremental digest to that of an empty cache.
func (a *lineArrays) clearDigest() {
	clear(a.dirtyIn)
	a.dirtySets = a.dirtySets[:0]
	clear(a.subs)
	a.sumA, a.sumB = 0, 0
}

var (
	linePoolsMu sync.Mutex
	linePools   = map[[2]int]*sync.Pool{}
)

func linePool(sets, ways int) *sync.Pool {
	key := [2]int{sets, ways}
	linePoolsMu.Lock()
	defer linePoolsMu.Unlock()
	p, ok := linePools[key]
	if !ok {
		p = &sync.Pool{}
		linePools[key] = p
	}
	return p
}

// acquireLines returns zeroed (sets x ways) line arrays, reusing a
// released set of the same shape when available.
func acquireLines(sets, ways int) *lineArrays {
	pool := linePool(sets, ways)
	if v := pool.Get(); v != nil {
		// Nothing to zero: Release scrubbed exactly the occupied sets (the
		// only lines, occIn/dirtyIn flags, sub-digests and — transitively
		// — owners entries a run can have written), so the arrays are
		// already in their all-invalid initial state. A sweep's thousands
		// of same-shaped systems thus pay for their working set, not for
		// wiping the full 512KB L2 geometry every run.
		return v.(*lineArrays)
	}
	n := sets * ways
	return &lineArrays{
		n:       n,
		lines:   make([]line, n),
		owners:  make([]int32, n),
		occIn:   make([]bool, sets),
		mru:     make([]uint16, sets),
		dirtyIn: make([]bool, sets),
		subs:    make([]statehash.Sum, sets),
	}
}

// Release returns the cache's line arrays to the shape-keyed pool and
// leaves the cache unusable (its line state is gone). Call it only when no
// further accesses can happen — typically when the owning simulated
// system is torn down after a measurement. Releasing twice is a no-op.
func (c *Cache) Release() {
	if c == nil || c.arrays == nil {
		return
	}
	// Scrub only the sets this run occupied, returning the arrays to
	// their all-invalid state without touching the (typically much larger)
	// untouched remainder; acquireLines relies on this. Stamps outside
	// occupied sets were never written (fill marks occupancy, and a hit
	// refresh implies a valid line), so occupied sets are exhaustive; the
	// digest marks dirty only occupied sets, so they cover dirtyIn too.
	// mru needs no scrub: fill writes it before any hit can read it.
	for _, si := range c.occSets {
		base := int(si) * c.ways
		clear(c.lines[base : base+c.ways])
	}
	a := c.arrays
	for _, si := range c.occSets {
		c.occIn[si] = false
		a.dirtyIn[si] = false
		a.subs[si] = statehash.Sum{}
	}
	// occSets may have been regrown by append; hand the current backing
	// array back so its capacity is reused too.
	a.occSets = c.occSets[:0]
	a.dirtySets = a.dirtySets[:0]
	a.sumA, a.sumB = 0, 0
	linePool(a.n/c.cfg.Ways, c.cfg.Ways).Put(a)
	c.arrays = nil
	c.lines, c.owners = nil, nil
	c.occIn, c.occSets = nil, nil
	c.mru = nil
}
