// Package sim assembles the full NGMP-like multicore: in-order cores with
// private IL1/DL1, a shared bus (round-robin by default) to a way-
// partitioned L2, and a DDR2 memory controller as an extra bus master for
// split-transaction miss responses. It also provides the measurement
// harness (isolation and contended runs with warmup exclusion) that the
// paper's methodology consumes.
package sim

import (
	"fmt"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/mem"
)

// ArbiterKind selects the bus arbitration policy of a configuration.
type ArbiterKind string

const (
	// ArbiterRR is round-robin, the policy the paper's methodology
	// assumes.
	ArbiterRR ArbiterKind = "rr"
	// ArbiterTDMA is slot-based time division (ablation).
	ArbiterTDMA ArbiterKind = "tdma"
	// ArbiterFP is fixed priority (ablation).
	ArbiterFP ArbiterKind = "fp"
	// ArbiterLottery is seeded pseudo-random (ablation).
	ArbiterLottery ArbiterKind = "lottery"
	// ArbiterWRR is MBBA-style weighted round-robin (ablation); see
	// Config.WRRWeights.
	ArbiterWRR ArbiterKind = "wrr"
)

// Config describes a complete simulated platform.
type Config struct {
	// Name labels the configuration ("ngmp-ref", "ngmp-var", ...).
	Name string
	// Cores is the number of cores (bus masters 0..Cores-1; the memory
	// controller is master Cores).
	Cores int
	// ClockMHz is informational (the paper's platform runs at 200 MHz).
	ClockMHz int

	// IL1 and DL1 are per-core private cache geometries; their Latency
	// fields are the L1 lookup times (1 ref / 4 var).
	IL1, DL1 cache.Config
	// L2 is the shared cache geometry (way-partitioned in the NGMP).
	L2 cache.Config

	// BusTransferLat is the bus transfer + arbitration handover time
	// (3 cycles in the paper's setup).
	BusTransferLat int
	// L2HitLat is the L2 access time while the bus is held (6 cycles in
	// the paper's setup). A full load-hit transaction therefore occupies
	// the bus for lbus = BusTransferLat + L2HitLat = 9 cycles.
	L2HitLat int

	// NopLatency, IntLatency, BranchLatency are core execution latencies.
	NopLatency, IntLatency, BranchLatency int
	// StoreBufferDepth is the per-core store buffer capacity.
	StoreBufferDepth int

	// Mem is the memory controller / DRAM configuration.
	Mem mem.Config

	// Arbiter selects the bus policy; TDMASlot sizes TDMA slots (0 means
	// "one maximum transaction", i.e. BusLatency()); LotterySeed seeds the
	// lottery arbiter.
	Arbiter     ArbiterKind
	TDMASlot    int
	LotterySeed uint64
	// WRRWeights are the per-core weights for ArbiterWRR (the memory
	// port implicitly gets weight 1). Nil selects weight 2 for core 0
	// and 1 for the rest — the asymmetric-bandwidth scenario the
	// ablation probes.
	WRRWeights []int
}

// BusLatency returns lbus, the maximum cycles one transaction holds the bus.
func (c Config) BusLatency() int { return c.BusTransferLat + c.L2HitLat }

// UBD returns the analytical upper-bound delay of Eq. 1 for core requests:
// (Nc-1) * lbus. The memory-controller master is excluded, matching the
// paper's formula (it only competes when L2 misses are in flight, which the
// rsk experiments never produce).
func (c Config) UBD() int { return (c.Cores - 1) * c.BusLatency() }

// Validate checks the full configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: need at least one core, got %d", c.Cores)
	}
	if err := c.IL1.Validate(); err != nil {
		return fmt.Errorf("sim: IL1: %w", err)
	}
	if err := c.DL1.Validate(); err != nil {
		return fmt.Errorf("sim: DL1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if c.IL1.LineBytes != c.DL1.LineBytes || c.DL1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("sim: mixed line sizes IL1=%d DL1=%d L2=%d", c.IL1.LineBytes, c.DL1.LineBytes, c.L2.LineBytes)
	}
	if c.BusTransferLat < 1 || c.L2HitLat < 0 {
		return fmt.Errorf("sim: bad bus timing transfer=%d l2hit=%d", c.BusTransferLat, c.L2HitLat)
	}
	if c.NopLatency < 1 || c.IntLatency < 1 || c.BranchLatency < 1 {
		return fmt.Errorf("sim: execution latencies must be >= 1")
	}
	if c.StoreBufferDepth < 1 {
		return fmt.Errorf("sim: store buffer depth must be >= 1, got %d", c.StoreBufferDepth)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Mem.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("sim: memory line %d != L2 line %d", c.Mem.LineBytes, c.L2.LineBytes)
	}
	switch c.Arbiter {
	case ArbiterRR, ArbiterTDMA, ArbiterFP, ArbiterLottery, "":
	case ArbiterWRR:
		if c.WRRWeights != nil && len(c.WRRWeights) != c.Cores {
			return fmt.Errorf("sim: %d WRR weights for %d cores", len(c.WRRWeights), c.Cores)
		}
		for i, w := range c.WRRWeights {
			if w <= 0 {
				return fmt.Errorf("sim: non-positive WRR weight %d for core %d", w, i)
			}
		}
	default:
		return fmt.Errorf("sim: unknown arbiter %q", c.Arbiter)
	}
	if c.TDMASlot < 0 {
		return fmt.Errorf("sim: negative TDMA slot %d", c.TDMASlot)
	}
	// The bus does not preempt, so a grant longer than its slot runs into
	// the next one; a port whose slot always opens on a busy bus is never
	// granted, and the run spins to the warmup cap.
	if c.Arbiter == ArbiterTDMA && c.TDMASlot > 0 && c.TDMASlot < c.BusLatency() {
		return fmt.Errorf("sim: TDMA slot %d is shorter than the longest bus transaction (lbus %d)", c.TDMASlot, c.BusLatency())
	}
	return nil
}

// NGMPRef returns the paper's reference architecture (§5.1): 4 cores at
// 200MHz, 16KB 4-way 32B-line write-through DL1 and IL1 with 1-cycle
// latency, 256KB 4-way L2 with per-core way partitioning, a round-robin bus
// with lbus = 9 (3 transfer + 6 L2 hit) so ubd = 27, an 8-entry store
// buffer and DDR2-667 memory.
func NGMPRef() Config {
	return Config{
		Name:     "ngmp-ref",
		Cores:    4,
		ClockMHz: 200,
		IL1: cache.Config{
			Name: "IL1", SizeBytes: 16 << 10, Ways: 4, LineBytes: 32,
			Policy: cache.LRU, Write: cache.WriteThrough, Latency: 1,
		},
		DL1: cache.Config{
			Name: "DL1", SizeBytes: 16 << 10, Ways: 4, LineBytes: 32,
			Policy: cache.LRU, Write: cache.WriteThrough, Latency: 1,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 256 << 10, Ways: 4, LineBytes: 32,
			Policy: cache.LRU, Write: cache.WriteBack, Latency: 6,
			Partitioned: true,
		},
		BusTransferLat:   3,
		L2HitLat:         6,
		NopLatency:       1,
		IntLatency:       1,
		BranchLatency:    1,
		StoreBufferDepth: 8,
		Mem:              mem.DDR2_667(),
		Arbiter:          ArbiterRR,
	}
}

// NGMPVar returns the paper's variant architecture: identical to NGMPRef
// except DL1 and IL1 latency is 4 cycles instead of 1, "which increases the
// injection time of all bus-access instructions by 3 cycles, from 1 to 4".
func NGMPVar() Config {
	c := NGMPRef()
	c.Name = "ngmp-var"
	c.IL1.Latency = 4
	c.DL1.Latency = 4
	return c
}

// Toy returns the small platform of the paper's illustrative figures
// (Figs. 2, 3, 5): 4 cores with lbus = 2 (1 transfer + 1 L2 hit), so
// ubd = 6.
func Toy() Config {
	c := Scaled(NGMPRef(), 4, 1, 1)
	c.Name = "toy"
	return c
}

// ByName returns the named stock platform: "ref", "var" or "toy" (the
// spellings scenario files and the CLIs' -arch flags use).
func ByName(name string) (Config, error) {
	switch name {
	case "ref", "":
		return NGMPRef(), nil
	case "var":
		return NGMPVar(), nil
	case "toy":
		return Toy(), nil
	default:
		return Config{}, fmt.Errorf("sim: unknown platform %q (ref|var|toy)", name)
	}
}

// Scaled returns a reduced copy of cfg with the given core count and bus
// latency split (transfer+l2hit), used by the parametric ablation that
// checks the methodology recovers Eq. 1 across geometries. The L2 is
// resized so the NGMP invariant "each core receives one way" is preserved
// (the per-way capacity stays that of cfg): without this, cores sharing a
// partition way would evict each other's lines and the resulting DRAM
// traffic would perturb the synchrony schedule.
func Scaled(cfg Config, cores, transferLat, l2HitLat int) Config {
	c := cfg
	c.Name = fmt.Sprintf("%s-n%d-l%d", cfg.Name, cores, transferLat+l2HitLat)
	c.Cores = cores
	c.BusTransferLat = transferLat
	c.L2HitLat = l2HitLat
	if c.L2.Partitioned && c.L2.Ways != cores && c.L2.Ways > 0 {
		perWay := c.L2.SizeBytes / c.L2.Ways
		c.L2.Ways = cores
		c.L2.SizeBytes = perWay * cores
	}
	return c
}

// newArbiter instantiates the configured arbitration policy for nports bus
// masters.
func (c Config) newArbiter(nports int) (bus.Arbiter, error) {
	switch c.Arbiter {
	case ArbiterRR, "":
		return bus.NewRoundRobin(nports), nil
	case ArbiterFP:
		// Memory responses first (ports beyond the cores), then cores
		// in index order: starving split responses would deadlock the
		// cores waiting on them.
		order := make([]int, 0, nports)
		for p := c.Cores; p < nports; p++ {
			order = append(order, p)
		}
		for p := 0; p < c.Cores; p++ {
			order = append(order, p)
		}
		return bus.NewFixedPriorityOrder(order), nil
	case ArbiterTDMA:
		slot := c.TDMASlot
		if slot == 0 {
			slot = c.BusLatency()
		}
		return bus.NewTDMA(nports, slot), nil
	case ArbiterLottery:
		return bus.NewLottery(nports, c.LotterySeed), nil
	case ArbiterWRR:
		weights := c.WRRWeights
		if weights == nil {
			weights = make([]int, c.Cores)
			for i := range weights {
				weights[i] = 1
			}
			weights[0] = 2
		}
		// The memory-response port participates with weight 1.
		full := append(append([]int(nil), weights...), make([]int, nports-c.Cores)...)
		for i := c.Cores; i < nports; i++ {
			full[i] = 1
		}
		return bus.NewWeightedRoundRobin(full), nil
	default:
		return nil, fmt.Errorf("sim: unknown arbiter %q", c.Arbiter)
	}
}
