package cache

import (
	"strings"
	"testing"
)

func smallCfg() Config {
	return Config{
		Name: "test", SizeBytes: 1 << 10, Ways: 2, LineBytes: 32,
		Policy: LRU, Write: WriteThrough, Latency: 1,
	}
}

func TestConfigSets(t *testing.T) {
	c := smallCfg()
	if got := c.Sets(); got != 16 {
		t.Errorf("Sets() = %d, want 16", got)
	}
	if (Config{}).Sets() != 0 {
		t.Error("zero config must report 0 sets")
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero size", func(c *Config) { c.SizeBytes = 0 }, "non-positive"},
		{"negative ways", func(c *Config) { c.Ways = -1 }, "non-positive"},
		{"odd line", func(c *Config) { c.LineBytes = 48 }, "power of two"},
		{"indivisible", func(c *Config) { c.SizeBytes = 1000 }, "not divisible"},
		{"non-pow2 sets", func(c *Config) { c.SizeBytes = 3 << 10 }, "power of two"},
		{"negative latency", func(c *Config) { c.Latency = -2 }, "negative latency"},
		{"too many ways", func(c *Config) { c.Ways = maxWays + 1 }, "exceed"},
	}
	for _, tc := range cases {
		c := smallCfg()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if !strings.Contains(Policy(9).String(), "9") {
		t.Error("unknown policy must include its value")
	}
	if WriteThrough.String() != "write-through" || WriteBack.String() != "write-back" {
		t.Error("write policy names wrong")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New must reject invalid configs")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew(smallCfg())
	if res := c.Access(0x100, false, 0); res.Hit {
		t.Error("cold access must miss")
	}
	if res := c.Access(0x100, false, 0); !res.Hit {
		t.Error("second access must hit")
	}
	// Same line, different offset.
	if res := c.Access(0x11f, false, 0); !res.Hit {
		t.Error("same-line access must hit")
	}
	// Next line misses.
	if res := c.Access(0x120, false, 0); res.Hit {
		t.Error("next line must miss")
	}
	st := c.Stats()
	if st.ReadHits != 2 || st.ReadMisses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := MustNew(smallCfg()) // 2 ways, 16 sets, 32B lines
	setStride := uint64(16 * 32)
	a, b, x := uint64(0), setStride, 2*setStride // same set, three lines
	c.Access(a, false, 0)
	c.Access(b, false, 0)
	c.Access(a, false, 0) // a most recent
	res := c.Access(x, false, 0)
	if res.Hit || !res.Evicted {
		t.Fatalf("conflicting access: %+v, want miss+eviction", res)
	}
	if !c.Contains(a) {
		t.Error("LRU must keep most-recently-used line a")
	}
	if c.Contains(b) {
		t.Error("LRU must evict least-recently-used line b")
	}
}

func TestFIFOReplacementIgnoresReuse(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = FIFO
	c := MustNew(cfg)
	setStride := uint64(16 * 32)
	a, b, x := uint64(0), setStride, 2*setStride
	c.Access(a, false, 0)
	c.Access(b, false, 0)
	c.Access(a, false, 0) // reuse does not refresh FIFO order
	c.Access(x, false, 0)
	if c.Contains(a) {
		t.Error("FIFO must evict the oldest fill (a) despite its reuse")
	}
	if !c.Contains(b) {
		t.Error("FIFO must keep the newer fill b")
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = Random
	runOnce := func() []bool {
		c := MustNew(cfg)
		setStride := uint64(16 * 32)
		for i := 0; i < 8; i++ {
			c.Access(uint64(i)*setStride, false, 0)
		}
		out := make([]bool, 8)
		for i := 0; i < 8; i++ {
			out[i] = c.Contains(uint64(i) * setStride)
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random replacement must be reproducible across identical runs")
		}
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := MustNew(smallCfg())
	if res := c.Access(0x200, true, 0); res.Hit {
		t.Error("cold write must miss")
	}
	if c.Contains(0x200) {
		t.Error("write-through must not allocate on write miss")
	}
	// After a load fills the line, writes hit.
	c.Access(0x200, false, 0)
	if res := c.Access(0x200, true, 0); !res.Hit {
		t.Error("write to resident line must hit")
	}
	if c.Stats().WriteMisses != 1 || c.Stats().WriteHits != 1 {
		t.Errorf("write stats wrong: %+v", c.Stats())
	}
}

func TestWriteBackAllocatesAndWritesBack(t *testing.T) {
	cfg := smallCfg()
	cfg.Write = WriteBack
	c := MustNew(cfg)
	if res := c.Access(0x300, true, 0); res.Hit {
		t.Error("cold write must miss")
	}
	if !c.Contains(0x300) {
		t.Error("write-back must allocate on write miss")
	}
	// Evict the dirty line by filling the set.
	setStride := uint64(16 * 32)
	c.Access(0x300+setStride, false, 0)
	res := c.Access(0x300+2*setStride, false, 0)
	if !res.Evicted || !res.NeedsWriteback {
		t.Fatalf("evicting dirty line: %+v, want writeback", res)
	}
	if res.WritebackAddr != 0x300&^31 {
		t.Errorf("writeback addr = %#x, want %#x", res.WritebackAddr, 0x300&^31)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writeback count = %d", c.Stats().Writebacks)
	}
}

func TestFillIdempotent(t *testing.T) {
	c := MustNew(smallCfg())
	if res := c.Fill(0x400, 0); res.Hit {
		t.Error("first fill must not report hit")
	}
	if res := c.Fill(0x400, 0); !res.Hit {
		t.Error("second fill must be a no-op hit")
	}
	if got := c.ValidLines(); got != 1 {
		t.Errorf("ValidLines = %d, want 1", got)
	}
	if c.Stats().Accesses() != 0 {
		t.Error("Fill must not count accesses")
	}
}

func TestPartitionedAllocation(t *testing.T) {
	cfg := Config{
		Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 32,
		Policy: LRU, Write: WriteBack, Latency: 1, Partitioned: true,
	}
	c := MustNew(cfg)
	sets := cfg.Sets()
	setStride := uint64(sets * 32)
	// Core 1 fills way 1 of set 0 with successive conflicting lines; the
	// partition means each new line evicts core 1's own previous line.
	c.Fill(0*setStride, 1)
	c.Fill(1*setStride, 1)
	if c.Contains(0) {
		t.Error("partitioned fill must evict within the owner's way")
	}
	// Core 2's fill must not evict core 1's line.
	c.Fill(2*setStride, 2)
	if !c.Contains(1 * setStride) {
		t.Error("another core's fill must not evict core 1's line")
	}
	if c.OwnerLines(1) != 1 || c.OwnerLines(2) != 1 {
		t.Errorf("owner lines = %d/%d, want 1/1", c.OwnerLines(1), c.OwnerLines(2))
	}
}

func TestPartitionedNegativeRequester(t *testing.T) {
	cfg := smallCfg()
	cfg.Partitioned = true
	c := MustNew(cfg)
	// Negative requester ids (background fills) must not panic and must
	// map into a valid way.
	c.Fill(0x40, -1)
	if c.ValidLines() != 1 {
		t.Error("negative requester fill failed")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x40, false, 0)
	c.Access(0x80, false, 0)
	c.InvalidateAll()
	if c.ValidLines() != 0 {
		t.Error("InvalidateAll must clear every line")
	}
	if c.Stats().Accesses() != 2 {
		t.Error("InvalidateAll must preserve statistics")
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x40, false, 0)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("ResetStats must zero counters")
	}
	if !c.Contains(0x40) {
		t.Error("ResetStats must preserve contents")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{ReadHits: 6, ReadMisses: 2, WriteHits: 1, WriteMisses: 1}
	if s.Accesses() != 10 || s.Hits() != 7 || s.Misses() != 3 {
		t.Errorf("stats arithmetic wrong: %+v", s)
	}
	if got := s.HitRate(); got != 0.7 {
		t.Errorf("HitRate = %v, want 0.7", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate must be 0")
	}
}

func TestAddressDecomposition(t *testing.T) {
	c := MustNew(smallCfg()) // 16 sets, 32B lines
	addr := uint64(0x12345)
	if got := c.LineAddr(addr); got != addr&^31 {
		t.Errorf("LineAddr = %#x", got)
	}
	if got := c.SetIndex(addr); got != (addr>>5)&15 {
		t.Errorf("SetIndex = %d", got)
	}
	if got := c.Tag(addr); got != addr>>5>>4 {
		t.Errorf("Tag = %#x", got)
	}
}

func TestRSKPatternAlwaysMisses(t *testing.T) {
	// The paper's rsk pattern: W+1 lines with set-span stride must miss
	// on every access under LRU and FIFO.
	for _, pol := range []Policy{LRU, FIFO} {
		cfg := Config{
			Name: "DL1", SizeBytes: 16 << 10, Ways: 4, LineBytes: 32,
			Policy: pol, Write: WriteThrough, Latency: 1,
		}
		c := MustNew(cfg)
		stride := uint64(cfg.Sets() * cfg.LineBytes)
		var addrs []uint64
		for i := 0; i <= cfg.Ways; i++ {
			addrs = append(addrs, uint64(i)*stride)
		}
		misses := 0
		for round := 0; round < 50; round++ {
			for _, a := range addrs {
				res := c.Access(a, false, 0)
				if !res.Hit {
					misses++
				}
				c.Fill(a, 0) // simulate the refill a load performs
			}
		}
		if misses != 50*len(addrs) {
			t.Errorf("%v: rsk pattern hit %d times, must always miss", pol, 50*len(addrs)-misses)
		}
	}
}
