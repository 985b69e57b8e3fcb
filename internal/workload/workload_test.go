package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rrbus/internal/isa"
)

func TestProfilesWellFormed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 16 {
		t.Fatalf("profiles = %d, want the 16 Autobench kernels", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.Description == "" {
			t.Errorf("%s lacks a description", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("canrdr")
	if !ok || p.Name != "canrdr" {
		t.Fatal("ByName failed")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("unknown name must miss")
	}
	if len(Names()) != len(Profiles()) {
		t.Fatal("Names length")
	}
}

func TestValidateRejects(t *testing.T) {
	good := Profile{Name: "x", MemFrac: 0.1, StoreFrac: 0.1, WorkingSet: 1024, Pattern: Sequential, BodyInstrs: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemFrac = 1.5 },
		func(p *Profile) { p.StoreFrac = -0.1 },
		func(p *Profile) { p.LongALUFrac = 2 },
		func(p *Profile) { p.WorkingSet = 8 },
		func(p *Profile) { p.BodyInstrs = 2 },
		func(p *Profile) { p.Pattern = Strided; p.StrideBytes = 0 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d must fail", i)
		}
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Sequential: "sequential", Strided: "strided", Random: "random", Chase: "chase",
	} {
		if p.String() != want {
			t.Errorf("%d = %q", p, p.String())
		}
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern")
	}
}

func TestBuildDeterministic(t *testing.T) {
	p, _ := ByName("matrix")
	a, err := p.Build(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Body) != len(b.Body) {
		t.Fatal("lengths differ")
	}
	for i := range a.Body {
		if a.Body[i] != b.Body[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	// Different seed ⇒ different program.
	c, _ := p.Build(1, 43)
	same := true
	for i := range a.Body {
		if a.Body[i] != c.Body[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical programs")
	}
}

func TestBuildRespectsProfileShape(t *testing.T) {
	for _, name := range []string{"a2time", "cacheb", "pntrch", "basefp"} {
		p, _ := ByName(name)
		prog, err := p.Build(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(prog.Body) != p.BodyInstrs+1 {
			t.Errorf("%s: body = %d, want %d + branch", name, len(prog.Body), p.BodyInstrs)
		}
		if prog.Body[len(prog.Body)-1].Op != isa.OpBranch {
			t.Errorf("%s: missing loop branch", name)
		}
		loads, stores := prog.BodyRequests()
		memFrac := float64(loads+stores) / float64(p.BodyInstrs)
		if math.Abs(memFrac-p.MemFrac) > 0.05 {
			t.Errorf("%s: memory fraction %.3f, profile says %.3f", name, memFrac, p.MemFrac)
		}
		if loads+stores > 0 {
			storeFrac := float64(stores) / float64(loads+stores)
			if math.Abs(storeFrac-p.StoreFrac) > 0.12 {
				t.Errorf("%s: store fraction %.3f, profile says %.3f", name, storeFrac, p.StoreFrac)
			}
		}
		// Addresses stay within the working set of the core's region.
		base := dataBase(0)
		for _, in := range prog.Body {
			if in.Op.IsMem() {
				if in.Addr < base || in.Addr >= base+uint64(p.WorkingSet) {
					t.Fatalf("%s: address %#x outside working set", name, in.Addr)
				}
			}
		}
	}
}

func TestBuildPerCoreIsolation(t *testing.T) {
	p, _ := ByName("canrdr")
	p0, _ := p.Build(0, 1)
	p1, _ := p.Build(1, 1)
	if p0.CodeBase == p1.CodeBase {
		t.Error("cores share code base")
	}
	a0 := map[uint64]bool{}
	for _, in := range p0.Body {
		if in.Op.IsMem() {
			a0[in.Addr] = true
		}
	}
	for _, in := range p1.Body {
		if in.Op.IsMem() && a0[in.Addr] {
			t.Fatal("cores share data addresses")
		}
	}
}

func TestRandomTaskSets(t *testing.T) {
	sets := RandomTaskSets(8, 4, 1)
	if len(sets) != 8 {
		t.Fatalf("sets = %d", len(sets))
	}
	for _, ts := range sets {
		if len(ts.Names) != 4 {
			t.Fatalf("tasks = %d", len(ts.Names))
		}
		for _, n := range ts.Names {
			if _, ok := ByName(n); !ok {
				t.Fatalf("unknown profile %q in set", n)
			}
		}
	}
	// Reproducibility.
	again := RandomTaskSets(8, 4, 1)
	for i := range sets {
		for j := range sets[i].Names {
			if sets[i].Names[j] != again[i].Names[j] {
				t.Fatal("same seed must give same sets")
			}
		}
	}
	// Different seeds differ somewhere.
	other := RandomTaskSets(8, 4, 2)
	diff := false
	for i := range sets {
		for j := range sets[i].Names {
			if sets[i].Names[j] != other[i].Names[j] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds gave identical sets")
	}
}

func TestTaskSetBuild(t *testing.T) {
	ts := TaskSet{Names: []string{"a2time", "canrdr"}, Seed: 3}
	progs, err := ts.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("programs = %d", len(progs))
	}
	bad := TaskSet{Names: []string{"nope"}}
	if _, err := bad.Build(); err == nil {
		t.Error("unknown profile must fail")
	}
}

// TestPropChaseVisitsPermutation: the chase pattern follows a fixed
// permutation, so the same build never revisits a line before exhausting
// its cycle (addresses come from the permutation orbit).
func TestPropBuildAlwaysValid(t *testing.T) {
	profiles := Profiles()
	f := func(pi uint8, core uint8, seed uint64) bool {
		p := profiles[int(pi)%len(profiles)]
		prog, err := p.Build(int(core)%8, seed)
		if err != nil {
			return false
		}
		return prog.Validate() == nil && len(prog.Body) == p.BodyInstrs+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHeavyProfilesConflictInDL1: the calibrated stressors must produce
// DL1 conflict misses (their defining property, see the calibration note);
// the light profiles must stay DL1-resident.
func TestHeavyProfilesConflictInDL1(t *testing.T) {
	// 16KB 4-way 32B DL1 geometry: set span 4KB, 128 sets.
	const sets, ways = 128, 4
	setOf := func(addr uint64) int { return int(addr/32) % sets }
	for _, tc := range []struct {
		name  string
		heavy bool
	}{
		{"cacheb", true}, {"matrix", true}, {"tblook", true},
		{"basefp", false}, {"a2time", false},
	} {
		p, _ := ByName(tc.name)
		prog, err := p.Build(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		perSet := map[int]map[uint64]bool{}
		for _, in := range prog.Body {
			if !in.Op.IsMem() {
				continue
			}
			line := in.Addr &^ 31
			s := setOf(line)
			if perSet[s] == nil {
				perSet[s] = map[uint64]bool{}
			}
			perSet[s][line] = true
		}
		conflicts := false
		for _, lines := range perSet {
			if len(lines) > ways {
				conflicts = true
			}
		}
		if conflicts != tc.heavy {
			t.Errorf("%s: DL1 conflicts = %v, want %v", tc.name, conflicts, tc.heavy)
		}
	}
}

// TestBuildReusesGeneratorsExactly builds every profile on cores 0–7 at
// several seeds through Build, whose pooled generators were seeded and
// drawn from by the builds before, and from a generator made fresh for
// the same seed, and requires identical programs.
func TestBuildReusesGeneratorsExactly(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		for _, p := range Profiles() {
			for core := 0; core < 8; core++ {
				pooled, err := p.Build(core, seed)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := p.build(core, rand.New(rand.NewSource(p.seed(core, seed))))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("%s core %d seed %d: pooled generator builds a different program", p.Name, core, seed)
				}
			}
		}
	}
}
