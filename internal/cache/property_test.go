package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rrbus/internal/statehash"
)

// TestPropCapacityNeverExceeded: no access sequence can make the cache hold
// more lines than its geometry allows.
func TestPropCapacityNeverExceeded(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		cfg := Config{
			Name: "prop", SizeBytes: 512, Ways: 2, LineBytes: 32,
			Policy: LRU, Write: WriteBack, Latency: 1,
		}
		c := MustNew(cfg)
		capacity := cfg.Sets() * cfg.Ways
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w, 0)
			if c.ValidLines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropHitAfterAccess: immediately re-reading any previously read
// address hits, for every replacement policy (the line was just installed
// or refreshed).
func TestPropHitAfterAccess(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random} {
		pol := pol
		f := func(a uint16) bool {
			cfg := Config{
				Name: "prop", SizeBytes: 1 << 10, Ways: 4, LineBytes: 32,
				Policy: pol, Write: WriteThrough, Latency: 1,
			}
			c := MustNew(cfg)
			c.Access(uint64(a), false, 0)
			return c.Access(uint64(a), false, 0).Hit
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// TestPropLRUWorkingSetFits: a working set no larger than one set's
// associativity, all mapping to distinct sets or within associativity,
// never misses after the first pass under LRU.
func TestPropLRUWorkingSetFits(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{
			Name: "prop", SizeBytes: 2 << 10, Ways: 4, LineBytes: 32,
			Policy: LRU, Write: WriteThrough, Latency: 1,
		}
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		// Pick at most Ways lines per set.
		var addrs []uint64
		for set := 0; set < cfg.Sets(); set++ {
			n := rng.Intn(cfg.Ways + 1)
			for i := 0; i < n; i++ {
				addrs = append(addrs, uint64(set*cfg.LineBytes+i*cfg.Sets()*cfg.LineBytes))
			}
		}
		if len(addrs) == 0 {
			return true
		}
		for _, a := range addrs { // warm pass
			c.Access(a, false, 0)
		}
		for pass := 0; pass < 3; pass++ {
			for _, a := range addrs {
				if !c.Access(a, false, 0).Hit {
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

// TestPropStatsBalance: hits + misses always equals accesses, and
// evictions never exceed misses (only misses install lines).
func TestPropStatsBalance(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		cfg := Config{
			Name: "prop", SizeBytes: 512, Ways: 2, LineBytes: 32,
			Policy: FIFO, Write: WriteBack, Latency: 1,
		}
		c := MustNew(cfg)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w, 0)
		}
		s := c.Stats()
		if s.Hits()+s.Misses() != s.Accesses() {
			return false
		}
		return s.Evictions <= s.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropPartitionIsolation: with way partitioning, one requester's fills
// can never evict lines owned by another requester.
func TestPropPartitionIsolation(t *testing.T) {
	f := func(addrsA, addrsB []uint16) bool {
		cfg := Config{
			Name: "prop", SizeBytes: 4 << 10, Ways: 4, LineBytes: 32,
			Policy: LRU, Write: WriteBack, Latency: 1, Partitioned: true,
		}
		c := MustNew(cfg)
		// Requester 0 installs its lines.
		var mine []uint64
		for _, a := range addrsA {
			// Keep requester 0's footprint within its partition
			// (1 way x Sets lines): one line per set maximum.
			addr := uint64(a) % uint64(cfg.Sets()*cfg.LineBytes)
			c.Fill(addr, 0)
			mine = append(mine, addr)
		}
		present := make(map[uint64]bool)
		for _, a := range mine {
			present[c.LineAddr(a)] = c.Contains(a)
		}
		// Requester 1 hammers arbitrary lines.
		for _, b := range addrsB {
			c.Fill(uint64(b)^0x8000, 1)
		}
		// Requester 0's surviving lines must be untouched.
		for a, was := range present {
			if was && !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropTagSetRoundTrip: reconstructing an address from its tag and set
// yields the line address (used internally for writeback addresses).
func TestPropTagSetRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		cfg := Config{
			Name: "prop", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64,
			Policy: LRU, Write: WriteBack, Latency: 1,
		}
		c := MustNew(cfg)
		addr := uint64(a)
		rebuilt := c.reconstruct(c.Tag(addr), c.SetIndex(addr))
		return rebuilt == c.LineAddr(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// scratchDigest recomputes DigestState's fingerprint from nothing but the
// line array: every occupied set's sub-digest hashed afresh and summed.
func scratchDigest(c *Cache) statehash.Sum {
	var sumA, sumB uint64
	occupied := 0
	for si := 0; si < c.cfg.Sets(); si++ {
		set := c.lines[si*c.ways : (si+1)*c.ways]
		valid := false
		for _, l := range set {
			valid = valid || l.tag != 0
		}
		if !valid {
			continue
		}
		occupied++
		h := statehash.New()
		h.Add(uint64(si))
		for _, l := range set {
			older := uint64(0)
			for _, o := range set {
				if o.stamp < l.stamp {
					older++
				}
			}
			h.Add(l.tag)
			h.Add(l.stamp & 1)
			h.Add(older)
		}
		sub := h.Sum()
		sumA += sub.A
		sumB += sub.B
	}
	h := statehash.New()
	h.Add(sumA)
	h.Add(sumB)
	h.Add(uint64(occupied))
	h.Add(c.rng)
	return h.Sum()
}

// TestPropIncrementalDigestMatchesScratch: after random access sequences
// under every policy, write mode and partitioning — reads, writes, refills,
// invalidations and pool round trips — the incremental digest equals a
// from-scratch recomputation at arbitrary points, and MatchState accepts a
// recording exactly when AppendState would reproduce it.
func TestPropIncrementalDigestMatchesScratch(t *testing.T) {
	for _, pol := range []Policy{LRU, FIFO, Random} {
		for _, wp := range []WritePolicy{WriteThrough, WriteBack} {
			for _, part := range []bool{false, true} {
				cfg := Config{
					Name: "digest", SizeBytes: 1 << 10, Ways: 4, LineBytes: 32,
					Policy: pol, Write: wp, Latency: 1, Partitioned: part,
				}
				for seed := int64(1); seed <= 8; seed++ {
					rng := rand.New(rand.NewSource(seed))
					c := MustNew(cfg)
					var rec []uint64
					for step := 0; step < 2000; step++ {
						// A small address space keeps sets contended, so
						// hits on older ways and evictions both happen.
						addr := uint64(rng.Intn(64)) * 32
						switch r := rng.Intn(100); {
						case r < 55:
							c.Access(addr, false, rng.Intn(4))
						case r < 90:
							c.Access(addr, true, rng.Intn(4))
						case r < 98:
							c.Fill(addr, rng.Intn(4))
						case r < 99:
							c.InvalidateAll()
						default:
							c.Release()
							c = MustNew(cfg)
						}
						if rng.Intn(7) != 0 {
							continue
						}
						h := statehash.New()
						c.DigestState(&h)
						if got, want := h.Sum(), scratchDigest(c); got != want {
							t.Fatalf("%v/%v/partitioned=%v seed %d step %d: incremental digest %v, from scratch %v",
								pol, wp, part, seed, step, got, want)
						}
						now := c.AppendState(nil)
						rest, ok := c.MatchState(rec)
						if want := slices.Equal(now, rec); ok != want || (ok && len(rest) != 0) {
							t.Fatalf("%v/%v/partitioned=%v seed %d step %d: MatchState ok=%v rest=%d, streams equal=%v",
								pol, wp, part, seed, step, ok, len(rest), want)
						}
						if rng.Intn(3) == 0 {
							rec = now
						}
					}
					c.Release()
				}
			}
		}
	}
}
