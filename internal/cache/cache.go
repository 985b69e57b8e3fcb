// Package cache implements the set-associative cache model used for the
// private IL1/DL1 caches and the shared, way-partitioned L2 of the simulated
// NGMP-like multicore.
//
// The model is purely functional with respect to timing: Access reports
// hit/miss and performs allocation/replacement bookkeeping, while the owning
// component (cpu core or bus/L2 front-end) charges latencies. This keeps the
// replacement logic independently testable against the paper's requirements
// (e.g. the rsk kernel's W+1 same-set strided loads must always miss DL1).
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement policy of a cache.
type Policy uint8

const (
	// LRU replaces the least recently used line (NGMP default; the paper's
	// caches all use LRU).
	LRU Policy = iota
	// FIFO replaces lines in allocation order regardless of reuse.
	FIFO
	// Random replaces a pseudo-randomly chosen line (deterministic xorshift
	// sequence, so simulations stay reproducible).
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// WritePolicy selects how stores interact with the cache.
type WritePolicy uint8

const (
	// WriteThrough propagates every store to the next level and does not
	// allocate on a write miss (the paper's DL1 configuration; this is why
	// every store becomes a bus request).
	WriteThrough WritePolicy = iota
	// WriteBack marks lines dirty and writes them out on eviction,
	// allocating on write misses.
	WriteBack
)

// String returns the write policy name.
func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Config describes one cache.
type Config struct {
	// Name labels the cache in stats and errors (e.g. "DL1").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the cache line size.
	LineBytes int
	// Policy is the replacement policy.
	Policy Policy
	// Write is the write policy.
	Write WritePolicy
	// Latency is the access latency in cycles charged by the owner
	// (lookup time; 1 for the reference NGMP L1s, 4 for the variant).
	Latency int
	// Partitioned enables NGMP-style per-requester way partitioning:
	// requester i may only allocate into way (i mod Ways). Lookups still
	// search all ways.
	Partitioned bool
}

// maxWays bounds the associativity: a set's most recently stamped way is
// kept as a uint16 (see Cache.mru).
const maxWays = 1 << 16

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.Ways <= 0 || c.LineBytes <= 0 {
		return 0
	}
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %d/%d/%d", c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache %s: %d ways exceed the %d a set's replacement bookkeeping indexes", c.Name, c.Ways, maxWays)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.Sets()
	if sets == 0 || sets*c.Ways*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %dB not divisible into %d ways of %dB lines", c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.Latency < 0 {
		return fmt.Errorf("cache %s: negative latency %d", c.Name, c.Latency)
	}
	return nil
}

// Stats accumulates cache accesses; hits and misses are split by reads and
// writes so write-through traffic can be accounted separately.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Evictions   uint64
	Writebacks  uint64
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// Hits returns the total hit count.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns the total miss count.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// HitRate returns hits/accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(a)
}

// line is one cache line's hot state: the tag word ((tag<<1)|1 for a valid
// line, 0 for an invalid one) and the replacement stamp with the dirty bit
// folded into its low bit (stamp = tick<<1 | dirty). Keeping the pair
// adjacent means a whole 4-way set is exactly one 64-byte host cache line:
// the tag scan, the LRU stamp update/victim search, and the eviction dirty
// check all touch the same line instead of striding across parallel
// arrays. Ticks are unique per access, so folding the dirty bit below the
// shifted tick never reorders two stamps.
type line struct {
	tag   uint64
	stamp uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-goroutine by design (determinism).
//
// Line state is a flat array of tag/stamp pairs indexed by set*ways+way
// (see line); owners, read only by cold statistics paths, stays a separate
// parallel array so the hot set stays within one host cache line.
type Cache struct {
	cfg    Config
	ways   int
	lines  []line
	owners []int32
	// arrays is the pooled backing storage behind the line arrays; Release
	// returns it to the shape-keyed pool (see pool.go).
	arrays *lineArrays
	// lru/writeBack/partitioned mirror cfg fields as direct booleans so the
	// access fast path branches on a byte load instead of pulling the whole
	// Config struct into the loop.
	lru         bool
	writeBack   bool
	partitioned bool
	random      bool
	setMask     uint64
	offBits     uint
	// tagShift is offBits plus the set-index width, precomputed so the
	// per-access Tag extraction is a single shift instead of re-deriving
	// bits.Len64(setMask) on every lookup.
	tagShift uint
	idxBits  uint
	tick     uint64
	rng      uint64
	stats    Stats
	// occIn/occSets track which sets hold at least one valid line, in
	// first-fill order. Only fill makes a line valid and only InvalidateAll
	// empties a set, so the list is append-only between invalidations. The
	// exact state walk (AppendState, MatchState) iterates it instead of
	// the full geometry: a workload touching a few sets of the 8K-line L2
	// walks in proportion to its working set, not the cache size.
	occIn   []bool
	occSets []int32
	// mru is each set's most recently stamped way, so an LRU hit on it,
	// which reorders nothing, is told apart from one that changes the
	// set's ranks; the rest of the incremental digest's state lives in
	// arrays (see lineArrays and DigestState).
	mru []uint16
}

// New builds a cache from cfg. It panics only via returned error; callers
// must check.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	offBits := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	idxBits := uint(bits.Len64(uint64(sets - 1)))
	arrays := acquireLines(sets, cfg.Ways)
	c := &Cache{
		cfg:         cfg,
		ways:        cfg.Ways,
		lines:       arrays.lines,
		owners:      arrays.owners,
		arrays:      arrays,
		lru:         cfg.Policy == LRU,
		writeBack:   cfg.Write == WriteBack,
		partitioned: cfg.Partitioned,
		random:      cfg.Policy == Random,
		setMask:     uint64(sets - 1),
		offBits:     offBits,
		idxBits:     idxBits,
		tagShift:    offBits + idxBits,
		rng:         0x9E3779B97F4A7C15,
		occIn:       arrays.occIn,
		occSets:     arrays.occSets,
		mru:         arrays.mru,
	}
	return c, nil
}

// MustNew builds a cache and panics on configuration errors; intended for
// tests and package-internal fixed configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing cache contents, so a
// measurement window can exclude warmup traffic.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetIndex returns the set index addr maps to.
func (c *Cache) SetIndex(addr uint64) uint64 { return (addr >> c.offBits) & c.setMask }

// Tag returns the tag of addr.
func (c *Cache) Tag(addr uint64) uint64 { return addr >> c.tagShift }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

// Result reports the outcome of an Access.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// Evicted is true when a valid line was displaced to make room.
	Evicted bool
	// WritebackAddr is the line address that must be written to the next
	// level (write-back caches evicting a dirty line). Valid only when
	// NeedsWriteback is true.
	WritebackAddr uint64
	// NeedsWriteback is true when the eviction displaced a dirty line.
	NeedsWriteback bool
}

// Access performs a read (isWrite=false) or write (isWrite=true) by
// requester (core id; used only by partitioned caches). It updates
// replacement state and statistics and reports hit/miss plus any writeback
// obligation.
//
// Write-through caches update the line on a write hit and do not allocate on
// a write miss; the caller must forward every write to the next level.
// Write-back caches allocate on both read and write misses.
func (c *Cache) Access(addr uint64, isWrite bool, requester int) Result {
	setIdx := addr >> c.offBits & c.setMask
	base := int(setIdx) * c.ways
	want := addr>>c.tagShift<<1 | 1
	c.tick++
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].tag == want {
			st := set[i].stamp
			if c.lru {
				// Refresh the stamp, preserving the dirty bit. The ranks
				// change only when the hit way was not already the newest.
				st = c.tick<<1 | st&1
				if c.mru[setIdx] != uint16(i) {
					c.mru[setIdx] = uint16(i)
					c.markDirty(setIdx)
				}
			}
			if isWrite {
				c.stats.WriteHits++
				if c.writeBack && st&1 == 0 {
					st |= 1
					c.markDirty(setIdx)
				}
			} else {
				c.stats.ReadHits++
			}
			set[i].stamp = st
			return Result{Hit: true}
		}
	}
	// Miss.
	if isWrite {
		c.stats.WriteMisses++
		if !c.writeBack {
			// No allocation on write miss.
			return Result{}
		}
	} else {
		c.stats.ReadMisses++
	}
	return c.fill(addr, setIdx, isWrite, requester)
}

// TryRead performs a read of addr only if it hits: the replacement state
// and the read-hit count change exactly as under Access, and it reports
// true. On a miss nothing changes and it reports false, so the caller can
// look ahead through hits and leave a miss to a later Access.
func (c *Cache) TryRead(addr uint64) bool {
	setIdx := addr >> c.offBits & c.setMask
	base := int(setIdx) * c.ways
	want := addr>>c.tagShift<<1 | 1
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].tag == want {
			c.tick++
			if c.lru {
				set[i].stamp = c.tick<<1 | set[i].stamp&1
				if c.mru[setIdx] != uint16(i) {
					c.mru[setIdx] = uint16(i)
					c.markDirty(setIdx)
				}
			}
			c.stats.ReadHits++
			return true
		}
	}
	return false
}

// Fill allocates a line for addr without counting an access, for refills
// that arrive later than the miss was recorded (e.g. DL1 allocation when the
// bus returns data). It is idempotent for already-present lines.
func (c *Cache) Fill(addr uint64, requester int) Result {
	setIdx := addr >> c.offBits & c.setMask
	base := int(setIdx) * c.ways
	want := addr>>c.tagShift<<1 | 1
	for _, v := range c.lines[base : base+c.ways] {
		if v.tag == want {
			return Result{Hit: true}
		}
	}
	c.tick++
	return c.fill(addr, setIdx, false, requester)
}

// fill allocates addr into its set, evicting the victim way chosen by the
// replacement policy (see victim). The victim search is fused in here —
// one pass over the set's tags for an invalid way, falling back to the
// policy pick — because the miss path is the hottest non-trivial operation
// in a full-system run and separate calls cost more than the scans.
func (c *Cache) fill(addr, setIdx uint64, isWrite bool, requester int) Result {
	base := int(setIdx) * c.ways
	set := c.lines[base : base+c.ways : base+c.ways]
	var w int
	if c.partitioned {
		// NGMP-style partitioning pins requester i to way (i mod Ways);
		// there is never a choice to make.
		w = requester % c.ways
		if w < 0 {
			w += c.ways
		}
	} else {
		w = -1
		for i := range set {
			if set[i].tag == 0 {
				w = i // prefer an invalid way
				break
			}
		}
		if w < 0 {
			if c.random {
				// xorshift64* for determinism.
				c.rng ^= c.rng << 13
				c.rng ^= c.rng >> 7
				c.rng ^= c.rng << 17
				w = int(c.rng % uint64(c.ways))
			} else if len(set) == 4 {
				// LRU and FIFO both evict the oldest stamp; they differ
				// in whether hits refresh the stamp (see Access). The
				// dirty bit below the shifted tick never breaks a tie:
				// ticks are unique. The 4-way platform geometry gets a
				// branchless tournament: the victim way rotates under
				// strided rsk access, so a compare-loop mispredicts
				// nearly every miss — conditional moves over four
				// register-resident stamps don't.
				s1, s2, s3 := set[1].stamp, set[2].stamp, set[3].stamp
				m := set[0].stamp
				if s1 < m {
					w = 1
					m = s1
				} else {
					w = 0
				}
				if s2 < m {
					w = 2
					m = s2
				}
				if s3 < m {
					w = 3
				}
			} else {
				w = 0
				for i := 1; i < len(set); i++ {
					if set[i].stamp < set[w].stamp {
						w = i
					}
				}
			}
		}
	}
	res := Result{}
	if old := set[w].tag; old != 0 {
		res.Evicted = true
		c.stats.Evictions++
		if set[w].stamp&1 != 0 {
			res.NeedsWriteback = true
			res.WritebackAddr = c.reconstruct(old>>1, setIdx)
			c.stats.Writebacks++
		}
	}
	set[w].tag = addr>>c.tagShift<<1 | 1
	var dirty uint64
	if isWrite && c.writeBack {
		dirty = 1
	}
	set[w].stamp = c.tick<<1 | dirty
	c.owners[base+w] = int32(requester)
	c.mru[setIdx] = uint16(w)
	if !c.occIn[setIdx] {
		c.occIn[setIdx] = true
		c.occSets = append(c.occSets, int32(setIdx))
	}
	c.markDirty(setIdx)
	return res
}

// markDirty queues setIdx for re-hashing at the next DigestState. Only
// occupied sets are ever marked (a fill, or a hit on a valid line).
func (c *Cache) markDirty(setIdx uint64) {
	if a := c.arrays; !a.dirtyIn[setIdx] {
		a.dirtyIn[setIdx] = true
		a.dirtySets = append(a.dirtySets, int32(setIdx))
	}
}

func (c *Cache) reconstruct(tag, setIdx uint64) uint64 {
	return (tag<<c.idxBits | setIdx) << c.offBits
}

// Contains reports whether addr's line is present, without touching
// replacement state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	base := int(c.SetIndex(addr)) * c.ways
	want := addr>>c.tagShift<<1 | 1
	for _, v := range c.lines[base : base+c.ways] {
		if v.tag == want {
			return true
		}
	}
	return false
}

// InvalidateAll clears every line (statistics are preserved).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
	clear(c.owners)
	clear(c.occIn)
	c.occSets = c.occSets[:0]
	c.arrays.clearDigest()
}

// ValidLines returns the number of valid lines currently cached.
func (c *Cache) ValidLines() int {
	n := 0
	for _, v := range c.lines {
		if v.tag != 0 {
			n++
		}
	}
	return n
}

// OwnerLines returns how many valid lines were allocated by requester; only
// meaningful for partitioned caches.
func (c *Cache) OwnerLines(requester int) int {
	n := 0
	for i, v := range c.lines {
		if v.tag != 0 && c.owners[i] == int32(requester) {
			n++
		}
	}
	return n
}
