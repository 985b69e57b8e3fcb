package rrbus

import (
	"rrbus/internal/analytic"
	"rrbus/internal/core"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/sim"
	"rrbus/internal/trace"
	"rrbus/internal/workload"
)

// Re-exported types: the facade names the library's public surface so
// downstream users never import internal packages directly.
type (
	// Config describes a simulated platform (cores, caches, bus timing,
	// memory, arbitration policy).
	Config = sim.Config
	// Workload pairs a measured program with contender programs.
	Workload = sim.Workload
	// RunOpts tunes warmup/measurement windows and observation hooks.
	RunOpts = sim.RunOpts
	// Measurement is the outcome of one run (cycles, requests, PMCs,
	// optional histograms).
	Measurement = sim.Measurement
	// System is a fully wired simulated platform for cycle-level control.
	System = sim.System

	// Program is an instruction sequence for one core.
	Program = isa.Program
	// Instr is one instruction.
	Instr = isa.Instr
	// Op is an instruction class (OpLoad, OpStore, ...).
	Op = isa.Op

	// KernelBuilder generates rsk/rsk-nop/nop kernels for a geometry.
	KernelBuilder = kernel.Builder

	// DeriveOptions configures the ubd derivation methodology.
	DeriveOptions = core.Options
	// DeriveResult carries the derived ubdm, the slowdown series, the
	// per-method period estimates and the confidence report.
	DeriveResult = core.Result
	// NaiveResult carries the prior state-of-the-art det/nr estimate.
	NaiveResult = core.NaiveResult
	// Confidence is the §4.3 confidence report of a derivation.
	Confidence = core.Confidence

	// Profile is one EEMBC-Autobench-like synthetic benchmark.
	Profile = workload.Profile

	// TraceRecorder captures bus grant events for timeline rendering.
	TraceRecorder = trace.Recorder
	// TraceEvent is one granted bus transaction.
	TraceEvent = trace.Event
)

// Instruction classes.
const (
	OpNop    = isa.OpNop
	OpLoad   = isa.OpLoad
	OpStore  = isa.OpStore
	OpIALU   = isa.OpIALU
	OpBranch = isa.OpBranch
)

// ArbiterKind selects a bus arbitration policy in Config.
type ArbiterKind = sim.ArbiterKind

// Bus arbitration policies.
const (
	ArbiterRR      = sim.ArbiterRR
	ArbiterTDMA    = sim.ArbiterTDMA
	ArbiterFP      = sim.ArbiterFP
	ArbiterLottery = sim.ArbiterLottery
	ArbiterWRR     = sim.ArbiterWRR
)

// Engine selects how the simulator executes a run (RunOpts.Engine,
// Session.Engine). Results are bit-identical in every engine.
type Engine = sim.Engine

// Simulator engines.
const (
	// EngineSteady is the default: event-driven execution that leaps
	// whole periods of a verified periodic fixed point in closed form.
	EngineSteady = sim.Steady
	// EngineEvent jumps from event to event and executes every period.
	EngineEvent = sim.Event
	// EngineOracle ticks every component every cycle: the reference the
	// other engines are diffed against.
	EngineOracle = sim.Oracle
)

// ReferenceNGMP returns the paper's reference platform (§5.1): 4 cores,
// 1-cycle L1s, round-robin bus with lbus = 9, so ubd = 27.
func ReferenceNGMP() Config { return sim.NGMPRef() }

// VariantNGMP returns the paper's variant platform: 4-cycle L1s, which
// raises the rsk injection time from 1 to 4 cycles.
func VariantNGMP() Config { return sim.NGMPVar() }

// ScaledConfig derives a platform with a different core count and bus
// latency split from cfg (parametric studies).
func ScaledConfig(cfg Config, cores, transferLat, l2HitLat int) Config {
	return sim.Scaled(cfg, cores, transferLat, l2HitLat)
}

// Run executes a workload on cfg and measures the scua.
func Run(cfg Config, w Workload, opt RunOpts) (*Measurement, error) { return sim.Run(cfg, w, opt) }

// RunIsolation measures scua alone on cfg.
func RunIsolation(cfg Config, scua *Program, opt RunOpts) (*Measurement, error) {
	return sim.RunIsolation(cfg, scua, opt)
}

// NewSystem wires a platform for cycle-level control (tracing, custom
// experiment loops). maxIters[i] bounds core i's iterations (0 = forever).
func NewSystem(cfg Config, programs []*Program, maxIters []uint64) (*System, error) {
	return sim.NewSystem(cfg, programs, maxIters)
}

// NewKernelBuilder returns a kernel generator for cfg's cache geometry.
func NewKernelBuilder(cfg Config) KernelBuilder {
	return kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
}

// AnalyticUBD is Eq. 1: (nc-1) * lbus.
func AnalyticUBD(nc, lbus int) int { return analytic.UBD(nc, lbus) }

// AnalyticGamma is Eq. 2: the synchrony-effect contention delay γ(δ).
func AnalyticGamma(delta, ubd int) int { return analytic.Gamma(delta, ubd) }

// EEMBCProfiles returns the 16 Autobench-like synthetic benchmark profiles.
func EEMBCProfiles() []Profile { return workload.Profiles() }

// EEMBCProfile returns the named profile.
func EEMBCProfile(name string) (Profile, bool) { return workload.ByName(name) }

// RenderTimeline renders recorded bus events as an ASCII Gantt chart
// (Figs. 2/3/5 style).
func RenderTimeline(events []TraceEvent, nports int, from, to uint64) string {
	return trace.Timeline(events, nports, from, to)
}
