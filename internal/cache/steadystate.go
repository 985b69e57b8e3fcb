package cache

import "rrbus/internal/statehash"

// This file is the cache side of the simulator's steady-state period
// memoization (internal/sim/steadystate.go).
//
// A cache's behavioral state is, per line, the tag word, the dirty bit, and
// the *rank* of its replacement stamp within its set. Raw stamps are
// absolute access ticks and never recur, but every replacement decision
// (LRU/FIFO victim = minimum stamp; hit refresh = new maximum) depends only
// on the relative order within the set, which the rank captures exactly —
// valid stamps are unique, and invalid lines (stamp 0) are mutually
// interchangeable because fill prefers them by way index, which the
// positional order already fixes. The Random policy's RNG state is state
// too. Excluded as non-behavioral: the global tick (absolute), the owners
// array (read only by OwnerLines statistics), and Stats (an observable
// handled by AddStats). An all-invalid set is indistinguishable from its
// zero initial state, so only occupied sets carry state.
//
// Two views of that state serve the detector. DigestState is the cheap
// fingerprint that proposes a period: a sum of per-set sub-digests, kept
// up to date incrementally. AppendState and MatchState are the exact
// canonical word stream that proves one: the detector leaps only when the
// streams at the two ends of a period are equal.

// rank is line i's replacement rank within set: how many of the set's
// stamps are older than its own.
func rank(set []line, i int) uint64 {
	st := set[i].stamp
	r := uint64(0)
	for j := range set {
		if set[j].stamp < st {
			r++
		}
	}
	return r
}

// subDigest is set si's sub-digest: the statehash of the set index and,
// per way, the tag word, the dirty bit and the rank.
func (c *Cache) subDigest(si int32) statehash.Sum {
	base := int(si) * c.ways
	set := c.lines[base : base+c.ways]
	h := statehash.New()
	h.Add(uint64(si))
	for i := range set {
		h.Add(set[i].tag)
		h.Add(set[i].stamp & 1)
		h.Add(rank(set, i))
	}
	return h.Sum()
}

// DigestState mixes a fingerprint of the cache's behavioral state into h:
// the lane-wise sum (mod 2^64) of every occupied set's sub-digest, the
// occupied-set count and the RNG. The access path queues a set only when
// its digested state changes (a fill; an LRU hit on a way that was not
// already the set's newest; a write-back hit that sets the dirty bit), and
// DigestState re-hashes only the queued sets, swapping each one's old
// sub-digest in the sum for its new one. A digest thus costs in proportion
// to the sets that changed since the last one, not to the working set.
//
// The sum is order-free and so weaker than a sequential hash: it is a
// filter, and the detector confirms every candidate period with
// MatchState before it leaps.
func (c *Cache) DigestState(h *statehash.Hash) {
	a := c.arrays
	for _, si := range a.dirtySets {
		a.dirtyIn[si] = false
		sub, old := c.subDigest(si), a.subs[si]
		a.sumA += sub.A - old.A
		a.sumB += sub.B - old.B
		a.subs[si] = sub
	}
	a.dirtySets = a.dirtySets[:0]
	h.Add(a.sumA)
	h.Add(a.sumB)
	h.Add(uint64(len(c.occSets)))
	h.Add(c.rng)
}

// StateLen is the length of the stream AppendState appends.
func (c *Cache) StateLen() int { return 2 + len(c.occSets)*(1+3*c.ways) }

// AppendState appends the cache's canonical state stream to buf and
// returns the extended slice: the occupied-set count; per occupied set, in
// first-fill order, its index and per way the tag word, the dirty bit and
// the rank; then the RNG. Two states with the same occupied sets list them
// in the same order: the list is append-only and sets never empty short of
// InvalidateAll, which resets it. Equal streams mean equal behavioral
// state.
func (c *Cache) AppendState(buf []uint64) []uint64 {
	buf = append(buf, uint64(len(c.occSets)))
	for _, si := range c.occSets {
		base := int(si) * c.ways
		set := c.lines[base : base+c.ways]
		buf = append(buf, uint64(si))
		for i := range set {
			buf = append(buf, set[i].tag, set[i].stamp&1, rank(set, i))
		}
	}
	return append(buf, c.rng)
}

// MatchState reports whether rec begins with the stream AppendState would
// append now, and returns the rest of rec. It compares while it walks and
// stops at the first difference.
func (c *Cache) MatchState(rec []uint64) (rest []uint64, ok bool) {
	n := c.StateLen()
	if len(rec) < n || rec[0] != uint64(len(c.occSets)) {
		return rec, false
	}
	k := 1
	for _, si := range c.occSets {
		base := int(si) * c.ways
		set := c.lines[base : base+c.ways]
		if rec[k] != uint64(si) {
			return rec, false
		}
		k++
		for i := range set {
			if rec[k] != set[i].tag || rec[k+1] != set[i].stamp&1 || rec[k+2] != rank(set, i) {
				return rec, false
			}
			k += 3
		}
	}
	if rec[k] != c.rng {
		return rec, false
	}
	return rec[n:], true
}

// AddStats adds k times the per-period delta d into the accumulated
// statistics — the cache part of extrapolating k whole steady-state
// periods. All fields are plain sums.
func (c *Cache) AddStats(d Stats, k uint64) {
	c.stats.ReadHits += d.ReadHits * k
	c.stats.ReadMisses += d.ReadMisses * k
	c.stats.WriteHits += d.WriteHits * k
	c.stats.WriteMisses += d.WriteMisses * k
	c.stats.Evictions += d.Evictions * k
	c.stats.Writebacks += d.Writebacks * k
}
