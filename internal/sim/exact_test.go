package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/statehash"
	"rrbus/internal/workload"
)

// pcsOnly is a deliberately weak fingerprint: the cores' PCs and nothing
// else. Caches, bus, memory and every relative time are left out, so it
// recurs long before the state does.
func pcsOnly(s *System) statehash.Sum {
	h := statehash.New()
	for _, c := range s.cores {
		h.Add(uint64(c.PC()))
	}
	return h.Sum()
}

// TestWeakFingerprintStaysExact is the claim that a leap rests on exact
// state equality, not on the fingerprint: with the PCs-only fingerprint
// proposing periods, the paper's 4×rsk kernels still leap, the exact
// comparison rejects candidates the fingerprint let through, and every
// three-way equivalence suite still gives identical Measurements.
func TestWeakFingerprintStaysExact(t *testing.T) {
	// Sequential: it swaps the package's fingerprint and reads the
	// process-wide leap counters; Cleanup restores it after the subtests.
	ssFingerprint = pcsOnly
	t.Cleanup(func() { ssFingerprint = nil })
	rejected := ssRejected.Load()
	for _, cfg := range []Config{NGMPRef(), NGMPVar()} {
		for _, op := range []isa.Op{isa.OpLoad, isa.OpStore} {
			t.Run(fmt.Sprintf("%s-4xrsk-%s", cfg.Name, op), func(t *testing.T) {
				b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
				progs := make([]*isa.Program, cfg.Cores)
				for c := range progs {
					p, err := b.RSK(c, op)
					if err != nil {
						t.Fatal(err)
					}
					progs[c] = p
				}
				before := ReadExecStats().PeriodsLeapt
				runThreeWay(t, cfg, Workload{Scua: progs[0], Contenders: progs[1:]},
					RunOpts{WarmupIters: 3, MeasureIters: 50, CollectGammas: true})
				if ReadExecStats().PeriodsLeapt == before {
					t.Error("no period leapt under the weak fingerprint")
				}
			})
		}
	}
	if ssRejected.Load() == rejected {
		t.Error("the exact comparison rejected no candidate; it is not shown to be live")
	}
	t.Run("randomized", randomizedEquivalence)
	t.Run("store-kernel", storeKernelEquivalence)
	t.Run("isolation", isolationEquivalence)
	t.Run("idle-slot", idleSlotEquivalence)
}

// TestDeltaEqualEachField changes every field diff fills, one at a time,
// and requires equal to notice each change. The walk is reflective, so a
// field added to ssDelta is changed too and must be compared.
func TestDeltaEqualEachField(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	progs := make([]*isa.Program, cfg.Cores)
	for c := range progs {
		p, err := b.RSK(c, isa.OpStore)
		if err != nil {
			t.Fatal(err)
		}
		progs[c] = p
	}
	sys, err := NewSystem(cfg, progs, make([]uint64, cfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	sys.Bus().Watch(0, cfg.UBD()+2, cfg.Cores+1)
	var before, after ssSnapshot
	sys.RunUntil(func() bool { return false }, 20_000)
	before.take(sys)
	sys.RunUntil(func() bool { return false }, 25_000)
	after.take(sys)
	// Two deltas of the same snapshots: equal, and sharing no slice.
	var base, other ssDelta
	if !base.diff(&before, &after) || !other.diff(&before, &after) {
		t.Fatal("diff refused same-shape snapshots")
	}
	if !base.equal(&other) {
		t.Fatal("two deltas of the same snapshots differ")
	}
	n := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				// ssDelta's fields are unexported; reach them through
				// their address to change them.
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
				walk(f, path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			if v.Len() == 0 {
				t.Fatalf("%s is empty; the run must fill every delta field", path)
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Uint64:
			n++
			old := v.Uint()
			v.SetUint(old + 1)
			if base.equal(&other) || other.equal(&base) {
				t.Errorf("equal misses a change to %s", path)
			}
			v.SetUint(old)
		case reflect.Int:
			n++
			old := v.Int()
			v.SetInt(old + 1)
			if base.equal(&other) || other.equal(&base) {
				t.Errorf("equal misses a change to %s", path)
			}
			v.SetInt(old)
		default:
			t.Fatalf("%s: unexpected kind %s", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(&other).Elem(), "ssDelta")
	if !base.equal(&other) {
		t.Fatal("the walk left a change behind")
	}
	t.Logf("%d fields changed", n)
}

// BenchmarkObserve times one detector observation (ssObserve on the scan
// path: the state words, the fingerprint, the ring scan and the snapshot
// push) taken after one watched-core iteration, on the paper's 4×rsk load
// workload on ref and on a seeded task-set mix. The iteration itself runs
// untimed; ns/observation is the metric.
func BenchmarkObserve(b *testing.B) {
	cfg := NGMPRef()
	kb := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	rsk := make([]*isa.Program, cfg.Cores)
	for c := range rsk {
		p, err := kb.RSK(c, isa.OpLoad)
		if err != nil {
			b.Fatal(err)
		}
		rsk[c] = p
	}
	mix, err := workload.RandomTaskSets(1, cfg.Cores, 7)[0].Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		progs []*isa.Program
	}{{"rsk4-ref", rsk}, {"mix", mix}} {
		b.Run(bc.name, func(b *testing.B) {
			sys, err := NewSystem(cfg, bc.progs, make([]uint64, cfg.Cores))
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Release()
			watched := sys.Core(0)
			never := func() bool { return false }
			// One iteration of the watched core. RunUntil re-arms the
			// detector with an empty ring and stops at the boundary before
			// observing, so the timed observation below finds no match and
			// never leaps.
			iterate := func() {
				it := watched.Iters()
				sys.RunUntil(func() bool { return watched.Iters() > it }, math.MaxUint64)
			}
			for i := 0; i < 3; i++ {
				iterate()
			}
			var spent time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iterate()
				t0 := time.Now()
				sys.ssObserve(never, math.MaxUint64)
				spent += time.Since(t0)
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/observation")
		})
	}
}
