// Package workload generates synthetic tasks standing in for the EEMBC
// Autobench suite the paper evaluates with (§5.1). Real EEMBC sources are
// proprietary, so each benchmark is replaced by a seeded generator
// producing an instruction stream with the published kernel's broad
// characteristics: instruction mix (memory fraction, store share,
// multi-cycle ALU share), working-set size and access pattern. What the
// paper's Fig. 6(a) experiment needs from these tasks is exactly that their
// bus-request timing is irregular and their pressure moderate — which these
// profiles deliver deterministically.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"rrbus/internal/isa"
)

// Pattern selects a data access pattern.
type Pattern uint8

const (
	// Sequential walks the working set line by line.
	Sequential Pattern = iota
	// Strided jumps by a fixed stride, wrapping within the working set.
	Strided
	// Random draws uniformly distributed lines of the working set.
	Random
	// Chase follows a precomputed random permutation of the working
	// set's lines (pointer-chasing shape).
	Chase
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Chase:
		return "chase"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Profile characterizes one synthetic benchmark.
type Profile struct {
	// Name is the EEMBC Autobench kernel the profile substitutes for.
	Name string
	// Description summarizes the modeled computation.
	Description string
	// MemFrac is the fraction of body instructions accessing memory.
	MemFrac float64
	// StoreFrac is the fraction of memory accesses that are stores.
	StoreFrac float64
	// WorkingSet is the data footprint in bytes.
	WorkingSet int
	// Pattern is the access pattern; StrideBytes applies to Strided.
	Pattern     Pattern
	StrideBytes int
	// LongALUFrac is the fraction of ALU instructions with 3-cycle
	// latency (multiply/divide-heavy kernels).
	LongALUFrac float64
	// BodyInstrs is the loop body length in instructions.
	BodyInstrs int
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without name")
	}
	if p.MemFrac < 0 || p.MemFrac > 1 || p.StoreFrac < 0 || p.StoreFrac > 1 || p.LongALUFrac < 0 || p.LongALUFrac > 1 {
		return fmt.Errorf("workload: %s has fractions outside [0,1]", p.Name)
	}
	if p.WorkingSet < 64 {
		return fmt.Errorf("workload: %s working set %dB too small", p.Name, p.WorkingSet)
	}
	if p.BodyInstrs < 8 {
		return fmt.Errorf("workload: %s body %d too short", p.Name, p.BodyInstrs)
	}
	if p.Pattern == Strided && p.StrideBytes <= 0 {
		return fmt.Errorf("workload: %s strided without stride", p.Name)
	}
	return nil
}

// Profiles returns the 16 Autobench-like profiles in a stable order.
func Profiles() []Profile {
	// Calibration note: the automotive kernels are compute dominated. The
	// fractions below keep per-task bus pressure low (DL1-resident loads,
	// a few percent stores that reach the bus through write-through),
	// reproducing Fig. 6(a)'s observation that a task among EEMBC
	// contenders finds the bus empty or with one contender most of the
	// time. cacheb/matrix/tblook are the deliberate outliers with L2 or
	// DRAM footprints.
	return []Profile{
		{Name: "a2time", Description: "angle-to-time conversion (small tables, integer math)",
			MemFrac: 0.10, StoreFrac: 0.20, WorkingSet: 2 << 10, Pattern: Sequential, LongALUFrac: 0.15, BodyInstrs: 900},
		{Name: "aifftr", Description: "FFT, strided butterflies over a block",
			MemFrac: 0.18, StoreFrac: 0.25, WorkingSet: 8 << 10, Pattern: Strided, StrideBytes: 256, LongALUFrac: 0.35, BodyInstrs: 1400},
		{Name: "aifirf", Description: "FIR filter, sequential taps",
			MemFrac: 0.15, StoreFrac: 0.10, WorkingSet: 4 << 10, Pattern: Sequential, LongALUFrac: 0.30, BodyInstrs: 1000},
		{Name: "aiifft", Description: "inverse FFT, strided butterflies",
			MemFrac: 0.18, StoreFrac: 0.25, WorkingSet: 8 << 10, Pattern: Strided, StrideBytes: 512, LongALUFrac: 0.35, BodyInstrs: 1400},
		{Name: "basefp", Description: "basic arithmetic, register resident",
			MemFrac: 0.06, StoreFrac: 0.15, WorkingSet: 1 << 10, Pattern: Sequential, LongALUFrac: 0.45, BodyInstrs: 800},
		{Name: "bitmnp", Description: "bit manipulation, short integer ops",
			MemFrac: 0.08, StoreFrac: 0.25, WorkingSet: 2 << 10, Pattern: Random, LongALUFrac: 0.05, BodyInstrs: 900},
		{Name: "cacheb", Description: "cache buster: DL1-set-conflicting 4KB stride over 256KB, misses L2 partition too (DRAM traffic)",
			MemFrac: 0.18, StoreFrac: 0.25, WorkingSet: 256 << 10, Pattern: Strided, StrideBytes: 4096, LongALUFrac: 0.05, BodyInstrs: 1200},
		{Name: "canrdr", Description: "CAN remote data request handling",
			MemFrac: 0.12, StoreFrac: 0.25, WorkingSet: 4 << 10, Pattern: Random, LongALUFrac: 0.10, BodyInstrs: 1000},
		{Name: "idctrn", Description: "inverse DCT, blocked matrix walk",
			MemFrac: 0.15, StoreFrac: 0.20, WorkingSet: 8 << 10, Pattern: Strided, StrideBytes: 128, LongALUFrac: 0.40, BodyInstrs: 1300},
		{Name: "iirflt", Description: "IIR filter, short recurrences",
			MemFrac: 0.12, StoreFrac: 0.15, WorkingSet: 2 << 10, Pattern: Sequential, LongALUFrac: 0.35, BodyInstrs: 1000},
		{Name: "matrix", Description: "matrix arithmetic: column walk with DL1-set-conflicting 4KB stride, L2 resident",
			MemFrac: 0.12, StoreFrac: 0.15, WorkingSet: 32 << 10, Pattern: Strided, StrideBytes: 4096, LongALUFrac: 0.30, BodyInstrs: 1400},
		{Name: "pntrch", Description: "pointer chasing through a linked structure",
			MemFrac: 0.22, StoreFrac: 0.05, WorkingSet: 12 << 10, Pattern: Chase, LongALUFrac: 0.05, BodyInstrs: 1100},
		{Name: "puwmod", Description: "pulse-width modulation, small state",
			MemFrac: 0.08, StoreFrac: 0.30, WorkingSet: 1 << 10, Pattern: Sequential, LongALUFrac: 0.10, BodyInstrs: 850},
		{Name: "rspeed", Description: "road speed calculation, sensor tables",
			MemFrac: 0.10, StoreFrac: 0.20, WorkingSet: 2 << 10, Pattern: Random, LongALUFrac: 0.15, BodyInstrs: 900},
		{Name: "tblook", Description: "table lookup: 2KB-strided probes conflicting in two DL1 sets, L2 resident",
			MemFrac: 0.15, StoreFrac: 0.08, WorkingSet: 24 << 10, Pattern: Strided, StrideBytes: 2048, LongALUFrac: 0.20, BodyInstrs: 1100},
		{Name: "ttsprk", Description: "tooth-to-spark timing, mixed tables",
			MemFrac: 0.12, StoreFrac: 0.20, WorkingSet: 4 << 10, Pattern: Strided, StrideBytes: 96, LongALUFrac: 0.20, BodyInstrs: 1000},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns all profile names in order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// dataBase mirrors the kernel package's per-core data placement: distinct
// tags per core, identical set mapping, so the partitioned L2 keeps tasks
// independent.
func dataBase(core int) uint64 { return 0x1000_0000 * uint64(core+1) }

func codeBase(core int) uint64 { return 0x4000_0000 + uint64(core)<<20 }

// rngs pools the generators Build draws from. Seeding one restarts the
// sequence a fresh rand.NewSource of that seed produces, without
// allocating the source's 5 KB of state for every program.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Build generates the profile's program for the given core. The same
// (profile, core, seed) triple always yields the identical program.
func (p Profile) Build(core int, seed uint64) (*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	rng.Seed(p.seed(core, seed))
	return p.build(core, rng)
}

// seed is the generator seed of the (profile, core, seed) triple.
func (p Profile) seed(core int, seed uint64) int64 {
	return int64(seed ^ uint64(core)*0x9E3779B97F4A7C15 ^ hashName(p.Name))
}

// build generates the program for core, drawing from rng as seeded by
// Build.
func (p Profile) build(core int, rng *rand.Rand) (*isa.Program, error) {
	const lineBytes = 32
	lines := p.WorkingSet / lineBytes
	if lines < 1 {
		lines = 1
	}
	base := dataBase(core)

	// Chase pattern: fixed permutation of the working set's lines.
	var perm []int
	cursor := 0
	if p.Pattern == Chase {
		perm = rng.Perm(lines)
	}
	nextAddr := func() uint64 {
		var line int
		switch p.Pattern {
		case Sequential:
			line = cursor % lines
			cursor++
		case Strided:
			line = cursor % lines
			cursor += p.StrideBytes / lineBytes
			if p.StrideBytes%lineBytes != 0 {
				cursor++
			}
		case Random:
			line = rng.Intn(lines)
		case Chase:
			cursor = perm[cursor%lines]
			line = cursor
		}
		return base + uint64(line)*lineBytes + uint64(rng.Intn(lineBytes/4))*4
	}

	body := make([]isa.Instr, 0, p.BodyInstrs+1)
	for i := 0; i < p.BodyInstrs; i++ {
		switch {
		case rng.Float64() < p.MemFrac:
			addr := nextAddr()
			if rng.Float64() < p.StoreFrac {
				body = append(body, isa.Store(addr))
			} else {
				body = append(body, isa.Load(addr))
			}
		case rng.Float64() < p.LongALUFrac:
			body = append(body, isa.IALU(3))
		default:
			body = append(body, isa.IALU(0))
		}
	}
	body = append(body, isa.Branch())

	prog := &isa.Program{
		Name:     fmt.Sprintf("%s.c%d", p.Name, core),
		CodeBase: codeBase(core),
		Body:     body,
	}
	return prog, prog.Validate()
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// TaskSet is one multi-task workload: profile indices for each core.
type TaskSet struct {
	// Names are the profile names, one per core slot.
	Names []string
	// Seed parameterizes the generators.
	Seed uint64
}

// RandomTaskSets draws count random nTasks-sized workloads (with
// replacement across sets, without replacement within a set when possible),
// reproducing the paper's "8 randomly generated 4-task workloads with EEMBC
// benchmarks".
func RandomTaskSets(count, nTasks int, seed uint64) []TaskSet {
	rng := rand.New(rand.NewSource(int64(seed)))
	names := Names()
	out := make([]TaskSet, 0, count)
	for i := 0; i < count; i++ {
		pick := rng.Perm(len(names))
		set := TaskSet{Seed: seed + uint64(i)*7919}
		for t := 0; t < nTasks; t++ {
			set.Names = append(set.Names, names[pick[t%len(pick)]])
		}
		sort.Strings(set.Names)
		out = append(out, set)
	}
	return out
}

// Build instantiates the task set's programs, one per core starting at
// core 0.
func (ts TaskSet) Build() ([]*isa.Program, error) {
	progs := make([]*isa.Program, 0, len(ts.Names))
	for core, name := range ts.Names {
		p, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload: unknown profile %q", name)
		}
		prog, err := p.Build(core, ts.Seed)
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog)
	}
	return progs, nil
}
