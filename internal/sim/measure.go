package sim

import (
	"fmt"

	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/cpu"
	"rrbus/internal/isa"
	"rrbus/internal/mem"
	"rrbus/internal/pmc"
	"rrbus/internal/trace"
)

// Workload describes one measurement scenario: the software component under
// analysis (scua) on one core, optionally surrounded by contender programs
// on the remaining cores.
type Workload struct {
	// Scua is the measured program; it runs on core ScuaCore.
	Scua *isa.Program
	// ScuaCore selects the scua's core (default 0).
	ScuaCore int
	// Contenders run on the remaining cores in order, skipping ScuaCore.
	// They loop forever, so they never finish before the scua. Fewer
	// contenders than cores leaves the rest idle; nil entries are idle
	// cores too. An idle core fetches its one-line program once and then
	// halts (see idleProgram).
	Contenders []*isa.Program
}

// RunOpts tunes a measurement run.
type RunOpts struct {
	// WarmupIters body iterations are executed before the measurement
	// window opens (caches warm, synchrony established). Default 2.
	WarmupIters uint64
	// MeasureIters body iterations form the measurement window.
	// Default 10.
	MeasureIters uint64
	// MaxCycles aborts a run that exceeds this budget (deadlock and
	// misconfiguration guard). Default 2^28 ≈ 268M cycles, far beyond
	// any legitimate experiment in this package.
	MaxCycles uint64
	// CollectGammas enables the per-request contention histogram for the
	// scua (Fig. 6(b)) and the ready-contender histogram (Fig. 6(a)).
	CollectGammas bool
	// OnGrant, if non-nil, observes every grant during the measurement
	// window (tracing).
	OnGrant func(r *bus.Request)
	// TraceLimit enables capture of the measurement window's bus grant
	// events into Measurement.Trace (0 = no capture). The recorder keeps
	// the most recent TraceLimit events (ring semantics), bounding the
	// memory a long window can pin. This is what the timeline figures
	// (Figs. 2 and 5) record declaratively: a trace-bearing run is
	// measured once and the timeline is rendered from the events — live
	// or replayed from a results file — without re-simulating.
	TraceLimit int
	// DisableFastForward forces cycle-by-cycle execution instead of the
	// idle-cycle fast path. Results are identical either way (the
	// equivalence tests prove it); the switch exists for debugging and
	// for those tests.
	DisableFastForward bool
	// DisableSteadyState keeps the event-driven scheduler but disables
	// steady-state period extrapolation, so every period executes live.
	// Results are identical either way (the three-way equivalence tests
	// prove it); trace-bearing runs (TraceLimit, OnGrant) disable it
	// automatically because every grant must be observed individually.
	DisableSteadyState bool
}

func (o *RunOpts) fill() {
	if o.WarmupIters == 0 {
		o.WarmupIters = 2
	}
	if o.MeasureIters == 0 {
		o.MeasureIters = 10
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 1 << 28
	}
}

// Measurement is the outcome of one run.
type Measurement struct {
	// Cycles is the execution time of the scua's measured iterations.
	Cycles uint64
	// TotalCycles is the full simulated length of the run including the
	// warmup phase; throughput accounting (simcycles/s) uses it so the
	// warmup share of the wall time is matched by its cycle share.
	TotalCycles uint64
	// Iters is the number of measured iterations.
	Iters uint64
	// Requests is the number of bus transactions the scua's port was
	// granted during the window (loads + fetches + stores). This is the
	// nr of the paper's pad = nr * ubdm.
	Requests uint64
	// MaxGamma is the worst per-request contention delay the scua's port
	// suffered (the naive ubdm when the scua is an rsk).
	MaxGamma uint64
	// AvgGamma is the mean per-request contention delay.
	AvgGamma float64
	// Utilization is total bus occupancy divided by window length
	// (NGMP counter 0x18 normalized).
	Utilization float64
	// PerCoreUtilization is each core's bus occupancy share
	// (NGMP counter 0x17 normalized); index Cores is the memory port.
	PerCoreUtilization []float64
	// Scua holds the scua core's activity counters.
	Scua cpu.Counters
	// DL1, IL1 are the scua's L1 statistics; L2 is the shared cache; Bus
	// the bus statistics; Mem the memory system statistics.
	DL1, IL1, L2 cache.Stats
	Bus          bus.Stats
	Mem          mem.Stats
	// GammaHist counts the scua's requests by contention delay:
	// GammaHist[g] requests suffered exactly g cycles of contention
	// (CollectGammas only). The dense representation keeps the per-grant
	// hot path allocation-free; trailing entries may be zero.
	GammaHist []uint64
	// ContendersHist[i] counts scua submissions that found i other
	// requests pending or in service (CollectGammas only).
	ContendersHist []uint64
	// Trace is the captured window of bus grant events (TraceLimit runs
	// only): the most recent TraceLimit grants of the measurement window,
	// all ports, in grant order.
	Trace []trace.Event
	// PMC exposes the window as an NGMP-style counter snapshot for the
	// scua core (the view a real platform would offer the methodology).
	PMC pmc.Set
}

// SlowdownVs returns the execution-time increase of m relative to an
// isolation measurement over the same iteration count: the paper's
// det = ExecTime_rsk - ExecTime_isol.
func (m *Measurement) SlowdownVs(isol *Measurement) (int64, error) {
	if m.Iters != isol.Iters {
		return 0, fmt.Errorf("sim: slowdown over mismatched windows (%d vs %d iters)", m.Iters, isol.Iters)
	}
	return int64(m.Cycles) - int64(isol.Cycles), nil
}

// Run executes the workload on cfg and measures the scua over opt's window.
func Run(cfg Config, w Workload, opt RunOpts) (*Measurement, error) {
	opt.fill()
	if ForceCycleByCycle {
		opt.DisableFastForward = true
	}
	if ForceNoSteadyState {
		opt.DisableSteadyState = true
	}
	if w.Scua == nil {
		return nil, fmt.Errorf("sim: workload has no scua")
	}
	if w.ScuaCore < 0 || w.ScuaCore >= cfg.Cores {
		return nil, fmt.Errorf("sim: scua core %d out of range (%d cores)", w.ScuaCore, cfg.Cores)
	}
	if len(w.Contenders) > cfg.Cores-1 {
		return nil, fmt.Errorf("sim: %d contenders for %d cores", len(w.Contenders), cfg.Cores)
	}

	// Place programs: the scua on its core, contenders on the others in
	// order. Cores without a contender run one iteration of an idle
	// program so the RR port positions match the physical layout.
	full := make([]*isa.Program, 0, cfg.Cores)
	fullIters := make([]uint64, 0, cfg.Cores)
	ci := 0
	for core := 0; core < cfg.Cores; core++ {
		if core == w.ScuaCore {
			full = append(full, w.Scua)
			fullIters = append(fullIters, opt.WarmupIters+opt.MeasureIters)
			continue
		}
		var p *isa.Program
		if ci < len(w.Contenders) {
			p = w.Contenders[ci]
		}
		ci++
		iters := uint64(0)
		if p == nil {
			p, iters = idleProgram(core), 1
		}
		full = append(full, p)
		fullIters = append(fullIters, iters)
	}

	sys, err := NewSystem(cfg, full, fullIters)
	if err != nil {
		return nil, err
	}
	// The system is private to this run and every returned quantity below
	// is a copy, so its pooled allocations can be recycled on exit.
	defer sys.Release()
	sys.SetFastForward(!opt.DisableFastForward)
	sys.SetSteadyState(!opt.DisableSteadyState)
	sys.SetWatchCore(w.ScuaCore)
	scua := sys.Core(w.ScuaCore)

	// Warmup phase.
	if !sys.RunUntil(func() bool { return scua.Iters() >= opt.WarmupIters }, opt.MaxCycles) {
		return nil, fmt.Errorf("sim: warmup exceeded %d cycles (scua %q at %d/%d iters)",
			opt.MaxCycles, w.Scua.Name, scua.Iters(), opt.WarmupIters)
	}
	sys.ResetStats()
	startCycle := sys.Cycle()
	startIters := scua.Iters()

	m := &Measurement{}
	if opt.CollectGammas {
		// Native in-bus histograms rather than OnGrant/OnSubmit closures:
		// the bus counts γ and ready contenders for the scua's port itself
		// (identical semantics, including grow-on-demand sizing for
		// workloads whose responses queue behind DRAM traffic), leaving
		// the hooks free — and therefore the steady-state fast path
		// available, which extrapolates the histograms as plain counters.
		sys.Bus().Watch(w.ScuaCore, cfg.UBD()+2, cfg.Cores+1)
	}
	var rec *trace.Recorder
	if opt.TraceLimit > 0 {
		rec = trace.NewRecorder(opt.TraceLimit)
	}
	if opt.OnGrant != nil || rec != nil {
		// An external per-grant observer needs every grant executed; its
		// presence is also what disarms the steady-state detector.
		sys.Bus().OnGrant = func(r *bus.Request) {
			if rec != nil {
				rec.Record(r)
			}
			if opt.OnGrant != nil {
				opt.OnGrant(r)
			}
		}
	}

	// Measurement phase.
	target := opt.WarmupIters + opt.MeasureIters
	if !sys.RunUntil(func() bool { return scua.Iters() >= target }, opt.MaxCycles) {
		return nil, fmt.Errorf("sim: measurement exceeded %d cycles (scua %q at %d/%d iters)",
			opt.MaxCycles, w.Scua.Name, scua.Iters(), target)
	}

	if rec != nil {
		m.Trace = rec.Events()
	}
	if opt.CollectGammas {
		// Take ownership of the bus's live histograms; the run is over and
		// the system is released on return.
		m.GammaHist = sys.Bus().GammaHist()
		m.ContendersHist = sys.Bus().ContendersHist()
	}
	window := sys.Cycle() - startCycle
	bs := sys.Bus().Stats()
	m.Cycles = window
	m.TotalCycles = sys.Cycle()
	m.Iters = scua.Iters() - startIters
	m.Requests = bs.Grants[w.ScuaCore]
	m.MaxGamma = bs.MaxGamma[w.ScuaCore]
	if bs.Grants[w.ScuaCore] > 0 {
		m.AvgGamma = float64(bs.WaitSum[w.ScuaCore]) / float64(bs.Grants[w.ScuaCore])
	}
	m.Utilization = bs.Utilization(window)
	m.PerCoreUtilization = make([]float64, cfg.Cores+1)
	for p := range m.PerCoreUtilization {
		m.PerCoreUtilization[p] = bs.PortUtilization(p, window)
	}
	m.Scua = scua.Counters()
	m.DL1 = scua.DL1().Stats()
	m.IL1 = scua.IL1().Stats()
	m.L2 = sys.L2().Stats()
	m.Bus = bs
	m.Mem = sys.Mem().Stats()
	m.PMC = pmc.Set{
		pmc.CycleCount:    window,
		pmc.InstrCount:    m.Scua.Instrs,
		pmc.DCacheMiss:    m.DL1.Misses(),
		pmc.ICacheMiss:    m.IL1.Misses(),
		pmc.L2Hit:         m.L2.Hits(),
		pmc.L2Miss:        m.L2.Misses(),
		pmc.BusUtilCore:   bs.BusyCycles[w.ScuaCore],
		pmc.BusUtilTotal:  bs.TotalBusy,
		pmc.BusRequests:   bs.Grants[w.ScuaCore],
		pmc.BusWaitCycles: bs.WaitSum[w.ScuaCore],
		pmc.SBFullStalls:  scua.StoreBuffer().FullStalls,
		pmc.MemReads:      m.Mem.Reads,
		pmc.MemWrites:     m.Mem.Writes,
		// The span-accounted pipeline stalls: charged in closed form by the
		// event-driven scheduler, per-cycle by the legacy loop — identical
		// either way (the equivalence suite diffs them).
		pmc.PortStallCycles: m.Scua.PortStallCycles,
		pmc.SBStallCycles:   m.Scua.SBStallCycles,
	}
	return m, nil
}

// RunIsolation measures the scua alone on the platform: the baseline
// ExecTime_isol of the paper.
func RunIsolation(cfg Config, scua *isa.Program, opt RunOpts) (*Measurement, error) {
	return Run(cfg, Workload{Scua: scua}, opt)
}

// idleProgram returns the program of a core without work. Run bounds it to
// one iteration — an instruction fetch over the bus, a long-latency ALU op
// and the loop branch — after which the core halts in its done state. The
// fetch is the only bus traffic it makes. A halted core adds a constant to
// the steady-state fingerprint; a looping one's 256-cycle phase against the
// scua's period would keep isolation runs from ever recurring.
func idleProgram(core int) *isa.Program {
	return &isa.Program{
		Name:     fmt.Sprintf("idle-%d", core),
		CodeBase: 0x7F00_0000 + uint64(core)<<16,
		Body:     []isa.Instr{isa.IALU(255), isa.Branch()},
	}
}
