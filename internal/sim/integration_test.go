package sim

import (
	"testing"
	"testing/quick"

	"rrbus/internal/analytic"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
)

// rskWorkload builds the canonical paper experiment: rsk-nop(t, k) on core
// 0 against Nc-1 rsk(t).
func rskWorkload(t *testing.T, cfg Config, typ isa.Op, k int) Workload {
	t.Helper()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	scua, err := b.RSKNop(0, typ, k)
	if err != nil {
		t.Fatal(err)
	}
	var cont []*isa.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, typ)
		if err != nil {
			t.Fatal(err)
		}
		cont = append(cont, p)
	}
	return Workload{Scua: scua, Contenders: cont}
}

// TestSynchronyEffectRef reproduces §5.2: under 3 load rsk contenders on
// the reference platform, 98% of the scua's requests suffer γ = 26
// (= ubd-1, the δrsk=1 synchrony value) and the observed maximum — the
// naive ubdm — is 26, not the actual 27.
func TestSynchronyEffectRef(t *testing.T) {
	cfg := NGMPRef()
	m, err := Run(cfg, rskWorkload(t, cfg, isa.OpLoad, 0),
		RunOpts{WarmupIters: 3, MeasureIters: 50, CollectGammas: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxGamma != 26 {
		t.Errorf("observed ubdm = %d, paper reports 26", m.MaxGamma)
	}
	var total, at26 uint64
	for g, n := range m.GammaHist {
		total += n
		if g == 26 {
			at26 += n
		}
	}
	frac := float64(at26) / float64(total)
	if frac < 0.97 || frac > 0.99 {
		t.Errorf("dominant-γ share = %.3f, paper reports 98%%", frac)
	}
	if m.Utilization < 0.999 {
		t.Errorf("utilization = %.3f, rsk must saturate the bus", m.Utilization)
	}
}

// TestSynchronyEffectVar reproduces the variant column of Fig. 6(b):
// ubdm = 23 with δrsk = 4.
func TestSynchronyEffectVar(t *testing.T) {
	cfg := NGMPVar()
	m, err := Run(cfg, rskWorkload(t, cfg, isa.OpLoad, 0),
		RunOpts{WarmupIters: 3, MeasureIters: 50, CollectGammas: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxGamma != 23 {
		t.Errorf("observed ubdm = %d, paper reports 23", m.MaxGamma)
	}
}

// TestSawtoothPeaksMatchPaper reproduces the Fig. 7(a) peak positions: the
// slowdown is maximal at k = 27 and 54 on ref (δ = 1+k ≡ 1 mod 27) and at
// k = 24 and 51 on var (δ = 4+k ≡ 1 mod 27).
func TestSawtoothPeaksMatchPaper(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		peaks []int
	}{
		{NGMPRef(), []int{27, 54}},
		{NGMPVar(), []int{24, 51}},
	} {
		slow := make(map[int]int64)
		for k := 20; k <= 56; k++ {
			mc, err := Run(tc.cfg, rskWorkload(t, tc.cfg, isa.OpLoad, k),
				RunOpts{WarmupIters: 3, MeasureIters: 10})
			if err != nil {
				t.Fatal(err)
			}
			b := kernel.NewBuilder(tc.cfg.DL1, tc.cfg.IL1, tc.cfg.L2)
			scua, _ := b.RSKNop(0, isa.OpLoad, k)
			mi, err := RunIsolation(tc.cfg, scua, RunOpts{WarmupIters: 3, MeasureIters: 10})
			if err != nil {
				t.Fatal(err)
			}
			slow[k] = int64(mc.Cycles) - int64(mi.Cycles)
		}
		for _, pk := range tc.peaks {
			if pk-1 >= 20 && slow[pk] <= slow[pk-1] {
				t.Errorf("%s: no peak at k=%d (%d vs %d at k-1)", tc.cfg.Name, pk, slow[pk], slow[pk-1])
			}
			if pk+1 <= 56 && slow[pk] <= slow[pk+1] {
				t.Errorf("%s: no peak at k=%d (%d vs %d at k+1)", tc.cfg.Name, pk, slow[pk], slow[pk+1])
			}
		}
	}
}

// TestPropSimMatchesEq2 is the central cross-validation property: for
// random platform geometries and injection times, the cycle-accurate
// simulator's steady-state per-request contention equals Eq. 2 exactly.
//
// Nc ≥ 3 is required: with a single contender the bus cannot saturate
// (duty lbus/(lbus+δrsk) < 1) and the synchrony effect does not lock in —
// the situation the methodology's bus-utilization confidence check exists
// to detect (see TestTwoCoreUtilizationWarning).
func TestPropSimMatchesEq2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(ncRaw, l2hitRaw, kRaw uint8) bool {
		nc := 3 + int(ncRaw)%3     // 3..5 cores
		l2hit := int(l2hitRaw) % 7 // lbus in 3..9 with transfer 3
		cfg := Scaled(NGMPRef(), nc, 3, l2hit)
		ubd := cfg.UBD()
		k := int(kRaw) % (2*ubd + 2)
		m, err := Run(cfg, rskWorkloadQuick(cfg, isa.OpLoad, k),
			RunOpts{WarmupIters: 3, MeasureIters: 8, CollectGammas: true})
		if err != nil {
			return false
		}
		// Dominant γ must equal γ(δrsk + k) from Eq. 2.
		var mode int
		var modeN uint64
		for g, n := range m.GammaHist {
			if n > modeN {
				mode, modeN = g, n
			}
		}
		want := analytic.Gamma(cfg.DL1.Latency+k, ubd)
		return mode == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func rskWorkloadQuick(cfg Config, typ isa.Op, k int) Workload {
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	scua, err := b.RSKNop(0, typ, k)
	if err != nil {
		panic(err)
	}
	var cont []*isa.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, typ)
		if err != nil {
			panic(err)
		}
		cont = append(cont, p)
	}
	return Workload{Scua: scua, Contenders: cont}
}

// TestStoreSweepShape reproduces Fig. 7(b)'s qualitative shape: a single
// descending tooth, then identically zero once the store buffer hides all
// contention.
func TestStoreSweepShape(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	var prev int64 = 1 << 62
	sawZero := false
	for _, k := range []int{10, 14, 18, 22, 26, 30, 36, 40, 44} {
		mc, err := Run(cfg, rskWorkload(t, cfg, isa.OpStore, k), RunOpts{WarmupIters: 3, MeasureIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		scua, _ := b.RSKNop(0, isa.OpStore, k)
		mi, err := RunIsolation(cfg, scua, RunOpts{WarmupIters: 3, MeasureIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		d := int64(mc.Cycles) - int64(mi.Cycles)
		if d < 0 {
			t.Fatalf("negative slowdown at k=%d: %d", k, d)
		}
		if sawZero && d != 0 {
			t.Fatalf("slowdown returned after zero at k=%d: %d (no second tooth)", k, d)
		}
		if d == 0 {
			sawZero = true
		}
		if !sawZero && d > prev {
			t.Fatalf("store tooth not descending at k=%d: %d > %d", k, d, prev)
		}
		prev = d
	}
	if !sawZero {
		t.Fatal("store slowdown never reached zero — buffer hiding broken")
	}
}

// TestMeasurementBasics checks the harness contract: windows exclude
// warmup, slowdown comparison demands matching windows, isolation runs see
// zero contention.
func TestMeasurementBasics(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	scua, err := b.RSK(0, isa.OpLoad)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunIsolation(cfg, scua, RunOpts{WarmupIters: 2, MeasureIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters != 10 {
		t.Errorf("measured iters = %d, want 10", m.Iters)
	}
	if m.MaxGamma != 0 {
		t.Errorf("isolation max γ = %d, want 0", m.MaxGamma)
	}
	if m.Requests == 0 {
		t.Error("rsk must issue bus requests")
	}
	// DL1 must miss on every rsk load (the kernel's defining property).
	if m.DL1.ReadMisses < m.Requests/2 {
		t.Errorf("DL1 read misses = %d for %d requests", m.DL1.ReadMisses, m.Requests)
	}

	m2, err := RunIsolation(cfg, scua, RunOpts{WarmupIters: 2, MeasureIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.SlowdownVs(m); err == nil {
		t.Error("mismatched windows must refuse slowdown comparison")
	}
	// Determinism: identical runs give identical cycles.
	m3, err := RunIsolation(cfg, scua, RunOpts{WarmupIters: 2, MeasureIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cycles != m.Cycles {
		t.Errorf("nondeterministic: %d vs %d cycles", m3.Cycles, m.Cycles)
	}
}

// TestTwoCoreUtilizationWarning: with Nc=2 a single rsk contender cannot
// keep the bus 100% busy on its own — it idles δrsk cycles between its
// transactions. Once the scua spreads its requests (k > 0), those idle
// cycles surface and the measured utilization falls short of 1: the signal
// the methodology's §4.3 confidence check consumes. (At k=0 the scua's own
// back-to-back traffic fills the gaps, which is why the check must span
// the whole sweep, as Derive's MinUtilization does.)
func TestTwoCoreUtilizationWarning(t *testing.T) {
	cfg := Scaled(NGMPRef(), 2, 3, 6)
	m0, err := Run(cfg, rskWorkload(t, cfg, isa.OpLoad, 0), RunOpts{WarmupIters: 3, MeasureIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m0.Utilization < 0.99 {
		t.Errorf("k=0 utilization = %.3f; two interleaved rsk saturate", m0.Utilization)
	}
	m, err := Run(cfg, rskWorkload(t, cfg, isa.OpLoad, 12), RunOpts{WarmupIters: 3, MeasureIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization > 0.97 {
		t.Errorf("k=12 utilization = %.3f; one contender must not saturate alone", m.Utilization)
	}
	if m.Utilization < 0.5 {
		t.Errorf("k=12 utilization = %.3f; the contender still loads the bus substantially", m.Utilization)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := NGMPRef()
	if _, err := Run(cfg, Workload{}, RunOpts{}); err == nil {
		t.Error("missing scua must fail")
	}
	p := nopLoop(0)
	if _, err := Run(cfg, Workload{Scua: p, ScuaCore: 9}, RunOpts{}); err == nil {
		t.Error("scua core out of range must fail")
	}
	if _, err := Run(cfg, Workload{Scua: p, Contenders: make([]*isa.Program, 4)}, RunOpts{}); err == nil {
		t.Error("too many contenders must fail")
	}
	if _, err := Run(cfg, Workload{Scua: p}, RunOpts{Engine: Oracle + 1}); err == nil {
		t.Error("unknown engine must fail")
	}
}

func TestRunMaxCyclesGuard(t *testing.T) {
	cfg := NGMPRef()
	p := nopLoop(0)
	_, err := Run(cfg, Workload{Scua: p}, RunOpts{WarmupIters: 1, MeasureIters: 1 << 40, MaxCycles: 2000})
	if err == nil {
		t.Error("exceeding MaxCycles must error")
	}
}

// TestScuaPlacementInvariance: by symmetry of round-robin, the derived
// contention is independent of which core hosts the scua.
func TestScuaPlacementInvariance(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	var baseline uint64
	for core := 0; core < cfg.Cores; core++ {
		scua, err := b.RSK(core, isa.OpLoad)
		if err != nil {
			t.Fatal(err)
		}
		var cont []*isa.Program
		for c := 0; c < cfg.Cores; c++ {
			if c == core {
				continue
			}
			p, err := b.RSK(c, isa.OpLoad)
			if err != nil {
				t.Fatal(err)
			}
			cont = append(cont, p)
		}
		m, err := Run(cfg, Workload{Scua: scua, ScuaCore: core, Contenders: cont},
			RunOpts{WarmupIters: 3, MeasureIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		if core == 0 {
			baseline = m.Cycles
			continue
		}
		if m.Cycles != baseline {
			t.Errorf("core %d: %d cycles, core 0: %d — RR must be symmetric", core, m.Cycles, baseline)
		}
	}
}

// TestPMCSnapshotConsistency: the PMC view must agree with the measurement
// fields the methodology reads.
func TestPMCSnapshotConsistency(t *testing.T) {
	cfg := NGMPRef()
	m, err := Run(cfg, rskWorkload(t, cfg, isa.OpLoad, 0), RunOpts{WarmupIters: 2, MeasureIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.PMC.Get(0x01) != m.Cycles {
		t.Error("PMC cycle counter mismatch")
	}
	if m.PMC.Get(0x100) != m.Requests {
		t.Error("PMC request counter mismatch")
	}
	if got := m.PMC.Utilization(0x18); got < 0.99 {
		t.Errorf("PMC total utilization = %.3f", got)
	}
}
