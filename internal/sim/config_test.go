package sim

import (
	"strings"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
)

func TestNGMPRefMatchesPaper(t *testing.T) {
	c := NGMPRef()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// §5.1/§5.2 numbers.
	if c.Cores != 4 {
		t.Errorf("cores = %d", c.Cores)
	}
	if c.BusLatency() != 9 {
		t.Errorf("lbus = %d, want 9 (3 transfer + 6 L2 hit)", c.BusLatency())
	}
	if c.UBD() != 27 {
		t.Errorf("ubd = %d, want 27", c.UBD())
	}
	if c.DL1.SizeBytes != 16<<10 || c.DL1.Ways != 4 || c.DL1.LineBytes != 32 {
		t.Errorf("DL1 geometry: %+v", c.DL1)
	}
	if c.DL1.Write != cache.WriteThrough {
		t.Error("DL1 must be write-through")
	}
	if c.L2.SizeBytes != 256<<10 || !c.L2.Partitioned {
		t.Errorf("L2 geometry: %+v", c.L2)
	}
	if c.DL1.Latency != 1 || c.IL1.Latency != 1 {
		t.Error("reference L1 latency must be 1")
	}
}

// TestToyConfig pins the small platform of the paper's illustrative
// figures (Figs. 2, 3, 5): 4 cores, lbus = 2, so ubd = 6.
func TestToyConfig(t *testing.T) {
	c := Toy()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.UBD() != 6 {
		t.Errorf("toy ubd = %d, want 6 (Fig. 3)", c.UBD())
	}
}

func TestNGMPVarRaisesL1Latency(t *testing.T) {
	v := NGMPVar()
	if v.DL1.Latency != 4 || v.IL1.Latency != 4 {
		t.Error("variant L1 latency must be 4")
	}
	if v.UBD() != NGMPRef().UBD() {
		t.Error("variant must keep the same ubd")
	}
	if v.Name == NGMPRef().Name {
		t.Error("variant must be distinguishable")
	}
}

func TestScaled(t *testing.T) {
	c := Scaled(NGMPRef(), 6, 2, 5)
	if c.Cores != 6 || c.BusLatency() != 7 || c.UBD() != 35 {
		t.Errorf("scaled config wrong: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no cores", func(c *Config) { c.Cores = 0 }, "at least one core"},
		{"bad dl1", func(c *Config) { c.DL1.Ways = 0 }, "DL1"},
		{"bad il1", func(c *Config) { c.IL1.SizeBytes = 7 }, "IL1"},
		{"bad l2", func(c *Config) { c.L2.LineBytes = 3 }, "L2"},
		{"mixed lines", func(c *Config) { c.DL1.LineBytes = 64; c.DL1.SizeBytes = 16 << 10 }, "mixed line sizes"},
		{"bus timing", func(c *Config) { c.BusTransferLat = 0 }, "bus timing"},
		{"exec lat", func(c *Config) { c.NopLatency = 0 }, "latencies"},
		{"sb", func(c *Config) { c.StoreBufferDepth = 0 }, "store buffer"},
		{"mem", func(c *Config) { c.Mem.Banks = 3 }, "power of two"},
		{"mem line", func(c *Config) { c.Mem.LineBytes = 64 }, "memory line"},
		{"arbiter", func(c *Config) { c.Arbiter = "bogus" }, "unknown arbiter"},
		{"tdma slot", func(c *Config) { c.TDMASlot = -1 }, "TDMA"},
		// The platform of mix seed 2's mix/055/tdma (count 64), which
		// starved a core until the warmup cap.
		{"tdma slot below lbus", func(c *Config) { c.Arbiter = ArbiterTDMA; c.TDMASlot = 8 },
			"TDMA slot 8 is shorter than the longest bus transaction (lbus 9)"},
	}
	for _, tc := range cases {
		c := NGMPRef()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestNewArbiterKinds(t *testing.T) {
	for kind, wantName := range map[ArbiterKind]string{
		ArbiterRR: "rr", ArbiterTDMA: "tdma", ArbiterFP: "fp", ArbiterLottery: "lottery", "": "rr",
	} {
		c := NGMPRef()
		c.Arbiter = kind
		a, err := c.newArbiter(5)
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		if a.Name() != wantName {
			t.Errorf("%q: arbiter %q", kind, a.Name())
		}
	}
	c := NGMPRef()
	c.Arbiter = "nope"
	if _, err := c.newArbiter(5); err == nil {
		t.Error("unknown arbiter must fail")
	}
}

func TestFPArbiterPrioritizesMemory(t *testing.T) {
	c := NGMPRef()
	c.Arbiter = ArbiterFP
	a, err := c.newArbiter(5)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := a.(*bus.FixedPriority)
	if !ok {
		t.Fatalf("arbiter type %T", a)
	}
	// The memory port (4) must outrank every core: split-transaction
	// responses starving behind saturating cores would deadlock the
	// waiting requesters.
	pending := []bool{true, true, true, true, true}
	if p, _ := fp.Pick(0, pending); p != 4 {
		t.Fatalf("pick = %d, want memory port 4", p)
	}
}

func TestTDMADefaultSlot(t *testing.T) {
	c := NGMPRef()
	c.Arbiter = ArbiterTDMA
	a, err := c.newArbiter(5)
	if err != nil {
		t.Fatal(err)
	}
	td := a.(*bus.TDMA)
	if td.Frame() != uint64(5*c.BusLatency()) {
		t.Errorf("default TDMA frame = %d, want %d", td.Frame(), 5*c.BusLatency())
	}
}
