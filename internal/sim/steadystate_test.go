package sim

import (
	"fmt"
	"reflect"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/workload"
)

// The steady-state engine must be invisible: leaping whole periods in
// closed form has to produce bit-identical results to executing them on
// the event core, which in turn matches the cycle-by-cycle oracle. These
// tests sweep the three engine modes over seeded random mixes and
// saturated store kernels under RR, WRR and TDMA, diff the full
// Measurement (γ-histogram, contenders-histogram and all PMCs included),
// and separately pin down the guard paths: a run that needs per-event
// observation must never extrapolate.

// runThreeWay measures the same workload in all three engine modes and
// requires the full Measurements to be identical. It returns the
// steady-state mode's measurement for further assertions.
func runThreeWay(t *testing.T, cfg Config, w Workload, opt RunOpts) *Measurement {
	t.Helper()
	mode := func(fastForward, steadyState bool) *Measurement {
		o := opt
		o.DisableFastForward = !fastForward
		o.DisableSteadyState = !steadyState
		m, err := Run(cfg, w, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	oracle := mode(false, false)
	event := mode(true, false)
	steady := mode(true, true)
	if !reflect.DeepEqual(oracle, event) {
		t.Errorf("event core deviates from oracle:\noracle: %+v\nevent:  %+v", oracle, event)
	}
	if !reflect.DeepEqual(oracle, steady) {
		t.Errorf("steady-state engine deviates from oracle:\noracle: %+v\nsteady: %+v", oracle, steady)
	}
	return steady
}

// TestSteadyStateRandomizedEquivalence sweeps seeded random task-set mixes
// under each arbiter through oracle, event and steady-state execution.
// Whether a given mix settles into a periodic fixed point is up to the
// generator — the equivalence claim holds either way (aperiodic mixes
// simply never leap).
func TestSteadyStateRandomizedEquivalence(t *testing.T) {
	for _, arb := range eqArbiters() {
		for _, seed := range []uint64{7, 21, 42} {
			t.Run(fmt.Sprintf("%s-seed%d", arb.name, seed), func(t *testing.T) {
				ts := workload.RandomTaskSets(1, arb.cfg.Cores, seed)[0]
				progs, err := ts.Build()
				if err != nil {
					t.Fatal(err)
				}
				runThreeWay(t, arb.cfg, Workload{Scua: progs[0], Contenders: progs[1:]},
					RunOpts{WarmupIters: 2, MeasureIters: 25, CollectGammas: true})
			})
		}
	}
}

// TestSteadyStateStoreKernelEquivalence saturates the store path — every
// core a store rsk, ports contended, store buffers filling — where the
// per-period deltas include SB pushes/drains and span-accounted stalls,
// and requires three-way identical measurements under every arbiter.
func TestSteadyStateStoreKernelEquivalence(t *testing.T) {
	for _, arb := range eqArbiters() {
		t.Run(arb.name, func(t *testing.T) {
			b := kernel.NewBuilder(arb.cfg.DL1, arb.cfg.IL1, arb.cfg.L2)
			b.Unroll = 2
			scua, err := b.RSKNop(0, isa.OpStore, 4)
			if err != nil {
				t.Fatal(err)
			}
			var cons []*isa.Program
			for c := 1; c < arb.cfg.Cores; c++ {
				p, err := b.RSK(c, isa.OpStore)
				if err != nil {
					t.Fatal(err)
				}
				cons = append(cons, p)
			}
			runThreeWay(t, arb.cfg, Workload{Scua: scua, Contenders: cons},
				RunOpts{WarmupIters: 2, MeasureIters: 40, CollectGammas: true})
		})
	}
}

// TestSteadyStateEngages proves the sweep above is not vacuous: on the
// paper's canonical 4-core load-rsk workload the detector must actually
// leap, covering a substantial share of the simulated cycles in closed
// form.
func TestSteadyStateEngages(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	scua, err := b.RSK(0, isa.OpLoad)
	if err != nil {
		t.Fatal(err)
	}
	var cons []*isa.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, isa.OpLoad)
		if err != nil {
			t.Fatal(err)
		}
		cons = append(cons, p)
	}
	before := ReadExecStats()
	m, err := Run(cfg, Workload{Scua: scua, Contenders: cons},
		RunOpts{WarmupIters: 3, MeasureIters: 50, CollectGammas: true})
	if err != nil {
		t.Fatal(err)
	}
	after := ReadExecStats()
	leapt := after.PeriodsLeapt - before.PeriodsLeapt
	extra := after.Extrapolated - before.Extrapolated
	if leapt == 0 || extra == 0 {
		t.Fatalf("steady-state engine did not engage on a periodic rsk workload (periods=%d extrapolated=%d)", leapt, extra)
	}
	if extra < m.TotalCycles/2 {
		t.Errorf("extrapolation covered only %d of %d cycles; expected the dominant share", extra, m.TotalCycles)
	}
}

// TestSteadyStateGuardPaths verifies the auto-disable contract: a run that
// requires exact per-event observation — a trace capture or a user OnGrant
// hook — must never extrapolate, and must still match the oracle
// byte-for-byte.
func TestSteadyStateGuardPaths(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	scua, err := b.RSK(0, isa.OpLoad)
	if err != nil {
		t.Fatal(err)
	}
	var cons []*isa.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, isa.OpLoad)
		if err != nil {
			t.Fatal(err)
		}
		cons = append(cons, p)
	}
	w := Workload{Scua: scua, Contenders: cons}

	guards := []struct {
		name string
		opt  func() RunOpts
	}{
		{"trace-limit", func() RunOpts {
			return RunOpts{WarmupIters: 3, MeasureIters: 30, CollectGammas: true, TraceLimit: 64}
		}},
		{"ongrant-hook", func() RunOpts {
			return RunOpts{WarmupIters: 3, MeasureIters: 30, CollectGammas: true,
				OnGrant: func(*bus.Request) {}}
		}},
	}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			before := ReadExecStats()
			m, err := Run(cfg, w, g.opt())
			if err != nil {
				t.Fatal(err)
			}
			after := ReadExecStats()
			if leapt := after.PeriodsLeapt - before.PeriodsLeapt; leapt != 0 {
				t.Fatalf("guarded run extrapolated %d periods; must execute every event", leapt)
			}
			oracleOpt := g.opt()
			oracleOpt.DisableFastForward = true
			oracle, err := Run(cfg, w, oracleOpt)
			if err != nil {
				t.Fatal(err)
			}
			// Hooks aren't comparable; the observable outcome is.
			if !reflect.DeepEqual(oracle, m) {
				t.Errorf("guarded run deviates from oracle:\noracle: %+v\nguarded: %+v", oracle, m)
			}
		})
	}
}

// TestSteadyStateBoundedContenders pins the done-transition clamp: when
// every core is iteration-bounded, a leap must stop short of any core's
// limit so the done state change executes live, and the final counters
// must match the oracle exactly.
func TestSteadyStateBoundedContenders(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	run := func(fastForward, steadyState bool) []uint64 {
		var progs []*isa.Program
		for c := 0; c < cfg.Cores; c++ {
			p, err := b.RSK(c, isa.OpLoad)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
		}
		// Staggered bounds: the scua's 40 iterations are the predicate;
		// contenders finish at different points mid-run.
		iters := []uint64{40, 25, 55, 70}
		sys, err := NewSystem(cfg, progs, iters)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetFastForward(fastForward)
		sys.SetSteadyState(steadyState)
		if !sys.RunUntil(func() bool { return sys.Core(0).Done() }, 1<<24) {
			t.Fatal("scua did not finish")
		}
		out := []uint64{sys.Cycle()}
		for c := 0; c < cfg.Cores; c++ {
			ctr := sys.Core(c).Counters()
			out = append(out, ctr.Iters, ctr.Instrs, ctr.Loads)
		}
		return out
	}
	oracle := run(false, false)
	event := run(true, false)
	steady := run(true, true)
	if !reflect.DeepEqual(oracle, event) {
		t.Errorf("event core deviates from oracle: %v vs %v", oracle, event)
	}
	if !reflect.DeepEqual(oracle, steady) {
		t.Errorf("steady-state engine deviates from oracle: %v vs %v", oracle, steady)
	}
}

// withArbiters returns cfg under each arbiter whose state the detector can
// digest (lottery's RNG never recurs, so it never leaps).
func withArbiters(cfg Config) []Config {
	var out []Config
	for _, kind := range []ArbiterKind{ArbiterRR, ArbiterWRR, ArbiterTDMA, ArbiterFP} {
		c := cfg
		c.Arbiter = kind
		out = append(out, c)
	}
	return out
}

// TestSteadyStateIsolationEquivalence covers the runs that leap once idle
// filler cores halt: the isolation half of every sweep point, on every
// stock geometry plus a scaled one, under each digestible arbiter. The
// workload is the one RunIsolation measures (the scua alone, every other
// core idle).
func TestSteadyStateIsolationEquivalence(t *testing.T) {
	for _, base := range []Config{NGMPRef(), NGMPVar(), Toy(), Scaled(NGMPRef(), 6, 3, 6)} {
		for _, cfg := range withArbiters(base) {
			b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
			b.Unroll = 2
			for _, op := range []isa.Op{isa.OpLoad, isa.OpStore} {
				for _, k := range []int{1, 12, 40} {
					t.Run(fmt.Sprintf("%s-%s-%s-k%d", base.Name, cfg.Arbiter, op, k), func(t *testing.T) {
						scua, err := b.RSKNop(0, op, k)
						if err != nil {
							t.Fatal(err)
						}
						runThreeWay(t, cfg, Workload{Scua: scua},
							RunOpts{WarmupIters: 3, MeasureIters: 20, CollectGammas: true})
					})
				}
			}
		}
	}
}

// TestSteadyStateIdleSlotEquivalence puts the scua on a middle core with
// nil contender slots around it, so halted idle cores sit on both sides of
// the scua's port in the arbitration order.
func TestSteadyStateIdleSlotEquivalence(t *testing.T) {
	const scuaCore = 2
	for _, cfg := range withArbiters(NGMPRef()) {
		b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
		b.Unroll = 2
		rsk := func(core int, op isa.Op) *isa.Program {
			p, err := b.RSK(core, op)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		cases := []struct {
			name       string
			op         isa.Op
			contenders []*isa.Program // cores 0, 1, 3 in order
		}{
			{"load-rsk-idle-rsk", isa.OpLoad, []*isa.Program{rsk(0, isa.OpLoad), nil, rsk(3, isa.OpLoad)}},
			// The saturating store contender sits on core 3: under fixed
			// priority a higher-priority one would starve the scua.
			{"store-idle-idle-rsk", isa.OpStore, []*isa.Program{nil, nil, rsk(3, isa.OpStore)}},
			{"load-all-idle", isa.OpLoad, []*isa.Program{nil}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-%s", cfg.Arbiter, tc.name), func(t *testing.T) {
				scua, err := b.RSKNop(scuaCore, tc.op, 7)
				if err != nil {
					t.Fatal(err)
				}
				runThreeWay(t, cfg, Workload{Scua: scua, ScuaCore: scuaCore, Contenders: tc.contenders},
					RunOpts{WarmupIters: 3, MeasureIters: 25, CollectGammas: true})
			})
		}
	}
}

// TestSteadyStateEngagesIsolation is the floor that keeps isolation runs
// leaping: at the derive protocol (warmup 3, 20 iterations, unroll 2) an
// isolation run on ref must extrapolate a large share of its cycles. A new
// digest field that drifts with the clock, or an idle core that never
// settles, turns leaping off silently — this test is what notices.
func TestSteadyStateEngagesIsolation(t *testing.T) {
	cfg := NGMPRef()
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	b.Unroll = 2
	for _, op := range []isa.Op{isa.OpLoad, isa.OpStore} {
		scua, err := b.RSKNop(0, op, 12)
		if err != nil {
			t.Fatal(err)
		}
		before := ReadExecStats()
		m, err := RunIsolation(cfg, scua, RunOpts{WarmupIters: 3, MeasureIters: 20})
		if err != nil {
			t.Fatal(err)
		}
		extra := ReadExecStats().Extrapolated - before.Extrapolated
		t.Logf("%s: %d of %d cycles extrapolated", op, extra, m.TotalCycles)
		if extra*10 < m.TotalCycles*4 {
			t.Errorf("%s isolation run extrapolated %d of %d cycles; want at least 40%%", op, extra, m.TotalCycles)
		}
	}
}
