// Package scenario is the declarative layer over the simulator and the
// experiment engine: a JSON-(de)serializable description of *what* to
// measure — platform, per-core workloads, measurement protocol — decoupled
// from *how* the measurement batch executes (internal/exp's streaming,
// sharding worker pool).
//
// The layer has three pieces:
//
//   - Scenario: one measurement run. PlatformSpec picks a stock platform
//     (ref/var/toy) and overrides geometry, latencies and the arbitration
//     policy (including WRR weights and TDMA slots); WorkloadSpec places
//     task specs (the rsk:load / rsknop:store:12 / profile syntax of
//     cmd/rrbus-sim, parsed by internal/workload) on cores; Protocol sets
//     warmup/measure iterations and γ collection.
//   - Job: a scenario plus an optional paired isolation run (the
//     contended-minus-isolation differencing every sweep of the paper
//     needs). Jobs are the unit of streaming and sharding.
//   - Plan: a scenario file. Either an explicit job list, or the name of
//     a registered generator plus parameters; generators expand the
//     paper's figures, ablations and derivation sweeps into job lists,
//     so any of them can be sharded across machines with no code edits.
//
// Running a plan (store.Session) streams one Result per job, in job
// order, to an exp.Sink — typically a JSONL file. Because every row is
// self-describing (it carries its job index) and results are delivered
// in index order, the concatenation produced by merging per-shard files
// is byte-identical to an unsharded run's file.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rrbus/internal/exp"
	"rrbus/internal/kernel"
	"rrbus/internal/sim"
	"rrbus/internal/trace"
	"rrbus/internal/workload"
)

// PlatformSpec declaratively selects and tweaks a simulated platform.
// The zero value is the reference NGMP.
type PlatformSpec struct {
	// Arch is the stock base platform: "ref" (default), "var" or "toy".
	Arch string `json:"arch,omitempty"`
	// Cores / Transfer / L2Hit rescale the geometry (0 keeps the base
	// value); the L2 keeps one way per core like sim.Scaled.
	Cores    int `json:"cores,omitempty"`
	Transfer int `json:"transfer,omitempty"`
	L2Hit    int `json:"l2hit,omitempty"`
	// NopLatency / StoreBuffer override core execution parameters
	// (0 keeps the base value).
	NopLatency  int `json:"nop_latency,omitempty"`
	StoreBuffer int `json:"store_buffer,omitempty"`
	// Arbiter selects the bus policy ("rr", "tdma", "fp", "lottery",
	// "wrr"; empty keeps the base policy). TDMASlot, LotterySeed and
	// WRRWeights parameterize the respective policies.
	Arbiter     string `json:"arbiter,omitempty"`
	TDMASlot    int    `json:"tdma_slot,omitempty"`
	LotterySeed uint64 `json:"lottery_seed,omitempty"`
	WRRWeights  []int  `json:"wrr_weights,omitempty"`
}

// Build materializes the spec into a validated sim.Config.
func (p PlatformSpec) Build() (sim.Config, error) {
	cfg, err := sim.ByName(p.Arch)
	if err != nil {
		return sim.Config{}, err
	}
	if p.Cores > 0 || p.Transfer > 0 || p.L2Hit > 0 {
		nc, tr, l2 := cfg.Cores, cfg.BusTransferLat, cfg.L2HitLat
		if p.Cores > 0 {
			nc = p.Cores
		}
		if p.Transfer > 0 {
			tr = p.Transfer
		}
		if p.L2Hit > 0 {
			l2 = p.L2Hit
		}
		cfg = sim.Scaled(cfg, nc, tr, l2)
	}
	if p.NopLatency > 0 {
		cfg.NopLatency = p.NopLatency
	}
	if p.StoreBuffer > 0 {
		cfg.StoreBufferDepth = p.StoreBuffer
	}
	if p.Arbiter != "" {
		cfg.Arbiter = sim.ArbiterKind(p.Arbiter)
		cfg.Name = fmt.Sprintf("%s-%s", cfg.Name, p.Arbiter)
	}
	if p.TDMASlot > 0 {
		cfg.TDMASlot = p.TDMASlot
	}
	if p.LotterySeed != 0 {
		cfg.LotterySeed = p.LotterySeed
	}
	if p.WRRWeights != nil {
		cfg.WRRWeights = append([]int(nil), p.WRRWeights...)
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// IdleSpec marks a core slot with no workload (the core runs the idle
// filler loop). The empty string means the same.
const IdleSpec = "idle"

// WorkloadSpec places task specs on cores. Task specs use the grammar of
// workload.BuildSpec.
type WorkloadSpec struct {
	// Scua is the measured task's spec; it runs on core ScuaCore.
	Scua     string `json:"scua"`
	ScuaCore int    `json:"scua_core,omitempty"`
	// Contenders are the co-running tasks' specs, placed on the remaining
	// cores in order; "idle" (or "") leaves a core idle. Fewer entries
	// than remaining cores leave the rest idle.
	Contenders []string `json:"contenders,omitempty"`
	// Seed parameterizes profile generators (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Unroll overrides the kernel builder's unroll factor (0 = the
	// builder default; sweeps pin the derivation's 2 so the loop
	// structure stays constant across k).
	Unroll int `json:"unroll,omitempty"`
}

// Protocol is the measurement protocol of a run.
type Protocol struct {
	// Warmup and Iters are the warmup and measured body iterations
	// (0 = the sim defaults: 2 and 10).
	Warmup uint64 `json:"warmup,omitempty"`
	Iters  uint64 `json:"iters,omitempty"`
	// Gammas enables the per-request contention and ready-contender
	// histograms.
	Gammas bool `json:"gammas,omitempty"`
	// Trace captures the most recent Trace bus grant events of the
	// measurement window into the result (0 = off). The timeline figures
	// (fig2/fig5) request a bounded window here, so their renderers can
	// replay the Gantt charts from recorded results alone.
	Trace int `json:"trace,omitempty"`
}

func (p Protocol) opts() sim.RunOpts {
	return sim.RunOpts{WarmupIters: p.Warmup, MeasureIters: p.Iters, CollectGammas: p.Gammas, TraceLimit: p.Trace}
}

// Scenario is one fully-described measurement run.
type Scenario struct {
	Name     string       `json:"name,omitempty"`
	Platform PlatformSpec `json:"platform,omitempty"`
	Workload WorkloadSpec `json:"workload"`
	Protocol Protocol     `json:"protocol,omitempty"`
}

// Build materializes the scenario: the validated platform configuration
// and the per-core programs, ready for sim.Run. Construction only — no
// simulation happens here.
func (s Scenario) Build() (sim.Config, sim.Workload, error) {
	cfg, err := s.Platform.Build()
	if err != nil {
		return sim.Config{}, sim.Workload{}, err
	}
	b := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	if s.Workload.Unroll > 0 {
		b.Unroll = s.Workload.Unroll
	}
	seed := s.Workload.Seed
	if seed == 0 {
		seed = 1
	}
	if s.Workload.Scua == "" {
		return sim.Config{}, sim.Workload{}, fmt.Errorf("scenario %q: no scua spec", s.Name)
	}
	scua, err := workload.BuildSpec(b, s.Workload.Scua, s.Workload.ScuaCore, seed)
	if err != nil {
		return sim.Config{}, sim.Workload{}, fmt.Errorf("scenario %q: scua: %w", s.Name, err)
	}
	w := sim.Workload{Scua: scua, ScuaCore: s.Workload.ScuaCore}
	for i, spec := range s.Workload.Contenders {
		spec = strings.TrimSpace(spec)
		if spec == "" || spec == IdleSpec {
			w.Contenders = append(w.Contenders, nil)
			continue
		}
		p, err := workload.BuildSpec(b, spec, contenderCore(s.Workload.ScuaCore, i), seed)
		if err != nil {
			return sim.Config{}, sim.Workload{}, fmt.Errorf("scenario %q: contender %d: %w", s.Name, i, err)
		}
		w.Contenders = append(w.Contenders, p)
	}
	return cfg, w, nil
}

// contenderCore returns the core index the i-th contender occupies when
// the scua sits on scuaCore (contenders fill the remaining cores in
// order, mirroring sim.Run's placement).
func contenderCore(scuaCore, i int) int {
	if i < scuaCore {
		return i
	}
	return i + 1
}

// Result is the JSON-serializable outcome of one job: the measurement
// fields the methodology and the figures consume, plus the isolation
// pairing when the job requested one.
type Result struct {
	// Schema versions the row format (see ResultSchema). Readers
	// tolerate its absence — rows from pre-versioned archives decode as
	// 0 — and reject rows newer than they understand.
	Schema int `json:"schema,omitempty"`
	// ID names the job ("fig7a/ref/k=12").
	ID string `json:"id,omitempty"`
	// Platform echoes the materialized platform name; Cores its core
	// count (so renderers can size per-port artifacts like timelines and
	// ready-contender histograms from the row alone).
	Platform string `json:"platform,omitempty"`
	Cores    int    `json:"cores,omitempty"`
	// Cycles is the contended (or only) run's measured window length.
	Cycles uint64 `json:"cycles"`
	// TotalCycles is the full simulated length including warmup —
	// the simulated-work denominator of throughput accounting.
	TotalCycles uint64 `json:"total_cycles,omitempty"`
	// Iters is the number of measured iterations.
	Iters uint64 `json:"iters,omitempty"`
	// Requests, MaxGamma, AvgGamma, Utilization mirror sim.Measurement.
	Requests    uint64  `json:"requests,omitempty"`
	MaxGamma    uint64  `json:"max_gamma,omitempty"`
	AvgGamma    float64 `json:"avg_gamma,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	// IsolationCycles and Slowdown are filled when the job pairs an
	// isolation run: Slowdown = Cycles - IsolationCycles.
	IsolationCycles uint64 `json:"isolation_cycles,omitempty"`
	Slowdown        int64  `json:"slowdown,omitempty"`
	// GammaHist / ContendersHist are the dense histograms (Protocol.Gammas
	// runs only; trailing zeros trimmed).
	GammaHist      []uint64 `json:"gamma_hist,omitempty"`
	ContendersHist []uint64 `json:"contenders_hist,omitempty"`
	// Trace is the captured bus-event window (Protocol.Trace runs only):
	// the most recent Protocol.Trace grants, all ports, in grant order.
	Trace []trace.Event `json:"trace,omitempty"`
}

// Job is the unit of streaming and sharding: one scenario, optionally
// paired with an isolation run of the same scua on the same platform.
type Job struct {
	ID       string   `json:"id"`
	Scenario Scenario `json:"scenario"`
	// Isolation additionally measures the scua alone and reports
	// IsolationCycles and Slowdown (the paper's det).
	Isolation bool `json:"isolation,omitempty"`
}

// Run executes the job on engine e: the scenario's run, plus the
// isolation pairing when requested. The row is the same in every engine.
func (j Job) Run(e sim.Engine) (Result, error) {
	res, _, _, err := j.RunFull(e)
	return res, err
}

// RunFull is Run, additionally returning the contended run's complete
// Measurement — the PMC snapshot, cache and DRAM counters the Result row
// does not retain — and the built workload (program names for report
// headers). Single-run tooling (rrbus-sim) uses it to print the full
// platform detail from one build while still emitting the
// self-describing row.
func (j Job) RunFull(e sim.Engine) (Result, *sim.Measurement, sim.Workload, error) {
	cfg, w, err := j.Scenario.Build()
	if err != nil {
		return Result{}, nil, sim.Workload{}, err
	}
	opts := j.Scenario.Protocol.opts()
	opts.Engine = e
	m, err := sim.Run(cfg, w, opts)
	if err != nil {
		return Result{}, nil, sim.Workload{}, fmt.Errorf("job %q: %w", j.ID, err)
	}
	res := Result{
		Schema:      ResultSchema,
		ID:          j.ID,
		Platform:    cfg.Name,
		Cores:       cfg.Cores,
		Cycles:      m.Cycles,
		TotalCycles: m.TotalCycles,
		Iters:       m.Iters,
		Requests:    m.Requests,
		MaxGamma:    m.MaxGamma,
		AvgGamma:    m.AvgGamma,
		Utilization: m.Utilization,
		Trace:       m.Trace,
	}
	if j.Scenario.Protocol.Gammas {
		res.GammaHist = trimZeros(m.GammaHist)
		res.ContendersHist = trimZeros(m.ContendersHist)
	}
	if j.Isolation {
		isol, err := sim.RunIsolation(cfg, w.Scua, opts)
		if err != nil {
			return Result{}, nil, sim.Workload{}, fmt.Errorf("job %q isolation: %w", j.ID, err)
		}
		res.IsolationCycles = isol.Cycles
		res.Slowdown = int64(m.Cycles) - int64(isol.Cycles)
	}
	return res, m, w, nil
}

func trimZeros(h []uint64) []uint64 {
	n := len(h)
	for n > 0 && h[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return h[:n]
}

// Plan is one scenario file: either an explicit job list, or a generator
// invocation that expands into one. A file with a single top-level
// "scenario" is also accepted as a one-job plan.
type Plan struct {
	Name string `json:"name,omitempty"`
	// Generator names a registered generator; Params parameterizes it.
	Generator string `json:"generator,omitempty"`
	Params    Params `json:"params,omitempty"`
	// Jobs is the explicit job list (mutually exclusive with Generator).
	Jobs []Job `json:"jobs,omitempty"`
	// Scenario is shorthand for a single-job plan.
	Scenario *Scenario `json:"scenario,omitempty"`
}

// Load reads and parses a scenario file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return &p, nil
}

// Expand resolves the plan into its concrete job list.
func (p *Plan) Expand() ([]Job, error) {
	n := 0
	if p.Generator != "" {
		n++
	}
	if len(p.Jobs) > 0 {
		n++
	}
	if p.Scenario != nil {
		n++
	}
	if n != 1 {
		return nil, fmt.Errorf("scenario: plan %q must set exactly one of generator, jobs, scenario", p.Name)
	}
	switch {
	case p.Generator != "":
		g, ok := Lookup(p.Generator)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown generator %q (have: %s)", p.Generator, strings.Join(Names(), ", "))
		}
		if err := g.checkParams(p.Params); err != nil {
			return nil, fmt.Errorf("scenario: generator %q: %w", p.Generator, err)
		}
		jobs, err := g.Expand(p.Params)
		if err != nil {
			return nil, fmt.Errorf("scenario: generator %q: %w", p.Generator, err)
		}
		return jobs, nil
	case p.Scenario != nil:
		id := p.Scenario.Name
		if id == "" {
			id = p.Name
		}
		if id == "" {
			id = "scenario"
		}
		return []Job{{ID: id, Scenario: *p.Scenario}}, nil
	default:
		return p.Jobs, nil
	}
}

// SamePath reports whether two paths refer to the same file: same
// cleaned absolute path, or same inode when both exist (symlinks, hard
// links). The CLIs use it to refuse a merge -out that aliases one of the
// input shard files, which os.Create would truncate before it is read.
func SamePath(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA == nil && errB == nil && aa == bb {
		return true
	}
	sa, errA := os.Stat(a)
	sb, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(sa, sb)
}

// MergeFiles recombines shard JSONL files (each streamed by a sharded
// session for a disjoint shard of one job list) into w — nil discards the merged
// bytes — and returns the decoded rows in job order, in one pass.
// exp.MergeJSONL enforces byte-identity with an unsharded run (sorted
// inputs, contiguous indices from 0); callers that know the expected job
// count should additionally check len(results) against it, because a
// tail-truncated final shard is indistinguishable from a shorter sweep.
func MergeFiles(w io.Writer, files []string) (idx []int, results []Result, err error) {
	readers := make([]io.Reader, 0, len(files))
	for _, f := range files {
		in, err := os.Open(f)
		if err != nil {
			return nil, nil, err
		}
		defer in.Close()
		readers = append(readers, in)
	}
	pr, pw := io.Pipe()
	dst := io.Writer(pw)
	if w != nil {
		dst = io.MultiWriter(w, pw)
	}
	go func() { pw.CloseWithError(exp.MergeJSONL(dst, readers...)) }()
	idx, results, err = exp.ReadJSONL[Result](pr)
	if err != nil {
		return nil, nil, err
	}
	if err := CheckResultSchema(results); err != nil {
		return nil, nil, err
	}
	return idx, results, nil
}

// ReadResults decodes a complete (unsharded or merged) JSONL results
// stream back into job order: one Result per job, indices contiguous
// from 0. A gap or duplicate means the reader was handed a lone shard
// file instead of a merged run — an error here, because every analysis
// over the rows (figure rendering, period detection) needs the full
// series. Like the merge, a truncated tail is undetectable from the
// stream alone; callers that know the job list must compare counts.
func ReadResults(r io.Reader) ([]Result, error) {
	idx, results, err := exp.ReadJSONL[Result](r)
	if err != nil {
		return nil, err
	}
	for i, got := range idx {
		if got != i {
			return nil, fmt.Errorf("scenario: results row %d has job index %d — a shard file rather than a merged run?", i, got)
		}
	}
	if err := CheckResultSchema(results); err != nil {
		return nil, err
	}
	return results, nil
}

// WriteResults writes results as the JSONL row stream a streaming run
// produces: row i carries job index i. It is the batch-collecting
// counterpart of the streaming sinks — rrbus-sim uses it so a single
// run's row is indistinguishable from a one-job batch's.
func WriteResults(w io.Writer, rs []Result) error {
	sink := exp.NewJSONLSink[Result](w)
	for i, r := range rs {
		if err := sink.Emit(i, r); err != nil {
			return err
		}
	}
	return sink.Flush()
}

// WriteResultsFile writes results as a JSONL file (see WriteResults).
func WriteResultsFile(path string, rs []Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteResults(f, rs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadResultsFile reads a complete JSONL results file (see ReadResults).
func ReadResultsFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results, err := ReadResults(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}
