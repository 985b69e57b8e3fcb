package rrbus

// This file is the public surface of the Plan→Run→Store→Render pipeline:
//
//	Plan    — a scenario file or generator invocation compiled to a
//	          canonical, content-addressed job list (every job carries a
//	          hash of the measurement it describes);
//	Session — the streaming runner: executes a plan's jobs on the
//	          experiment engine's worker pool, serving jobs whose hash
//	          already has a recorded row from the Store instead of
//	          simulating them, and recording fresh rows as they stream;
//	Store   — the content-addressed results store (in-memory or a
//	          shareable directory with integrity-verified entries);
//	Render  — the pure analysis stage: every figure, table and derived
//	          bound of the paper rebuilt from (Plan, []Result) alone.
//
// The pipeline's contract is byte-identity: for the same plan, a run
// served entirely from the store, a partly cached run, a sharded-and-
// merged run and a cold run all render the same bytes. The CLIs are thin
// callers of exactly this API.

import (
	"fmt"
	"io"

	"rrbus/internal/core"
	"rrbus/internal/exp"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
	"rrbus/internal/stats"
	"rrbus/internal/store"
)

type (
	// PlanSpec is the declarative plan as written in a scenario file:
	// exactly one of a generator invocation, an explicit job list, or a
	// single scenario.
	PlanSpec = scenario.Plan
	// Plan is a compiled plan: the concrete job list plus its per-job
	// and whole-plan content hashes.
	Plan = scenario.Compiled
	// Scenario describes one measurement run (platform, workloads,
	// protocol).
	Scenario = scenario.Scenario
	// PlatformSpec declaratively selects and tweaks a platform.
	PlatformSpec = scenario.PlatformSpec
	// WorkloadSpec places task specs on cores.
	WorkloadSpec = scenario.WorkloadSpec
	// Protocol is the measurement protocol of a run.
	Protocol = scenario.Protocol
	// Job pairs a scenario with an optional isolation run; it is the
	// unit of streaming, sharding and content addressing.
	Job = scenario.Job
	// Result is the self-describing recorded row of one job.
	Result = scenario.Result
	// Params parameterize a generator.
	Params = scenario.Params

	// Session is the pipeline's store-aware streaming runner.
	Session = store.Session
	// Store is the content-addressed results store interface.
	Store = store.Store
	// MemStore is the in-process Store implementation.
	MemStore = store.Mem
	// DirStore is the directory-backed, integrity-verified Store.
	DirStore = store.Dir

	// Shard selects every Count-th job of a plan for this machine.
	Shard = exp.Shard
	// ResultSink consumes streamed results in job-index order.
	ResultSink = exp.Sink[scenario.Result]
	// ResultSinkFunc adapts a function to ResultSink.
	ResultSinkFunc = exp.SinkFunc[scenario.Result]

	// Document is the typed output of the Render stage: an ordered list
	// of blocks a Backend encodes as text, HTML or JSON.
	Document = report.Document
	// DocBlock is one typed element of a Document.
	DocBlock = report.Block
	// Backend encodes a Document into one output format.
	Backend = report.Backend
	// TextBackend is the legacy terminal encoding (byte-identical to the
	// pre-Document renderers).
	TextBackend = report.TextBackend
	// HTMLBackend is the self-contained single-file HTML encoding with
	// inline SVG charts.
	HTMLBackend = report.HTMLBackend
	// JSONBackend is the schema-versioned machine-readable encoding
	// (decode with DecodeDocument).
	JSONBackend = report.JSONBackend

	// The Document block types, for assembling or post-processing
	// documents programmatically.
	HeadingBlock   = report.Heading
	ParagraphBlock = report.Paragraph
	SpacerBlock    = report.Spacer
	TableBlock     = report.Table
	SeriesBlock    = report.Series
	TimelineBlock  = report.Timeline
	HistogramBlock = report.Histogram
	BoundsBlock    = report.Bounds
	// Column and RowBlock are a TableBlock's typed pieces; Value is one
	// typed cell.
	Column   = report.Column
	RowBlock = report.Row
	Value    = report.Value

	// StorePlanInfo summarizes one recorded plan manifest (rrbus-store ls).
	StorePlanInfo = store.PlanInfo
	// StoreAuditReport is the outcome of DirStore.Verify (rrbus-store
	// verify).
	StoreAuditReport = store.AuditReport
	// StoreIssue is one store-verification failure.
	StoreIssue = store.Issue

	// Derivation is the detection half of the methodology re-run over a
	// recorded derivation block.
	Derivation = report.Derivation
	// PeriodMethod names one of the period-detection methods a
	// derivation reports per-method estimates for.
	PeriodMethod = core.PeriodMethod
	// SummaryRow is one line of the headline derived-vs-naive table.
	SummaryRow = report.SummaryRow
	// Histogram is a value→count distribution with rendering helpers.
	Histogram = stats.Hist
)

// LoadPlan loads a scenario file and compiles it into a
// content-addressed plan.
func LoadPlan(path string) (*Plan, error) { return scenario.LoadCompiled(path) }

// CompilePlan compiles an in-memory plan spec.
func CompilePlan(spec *PlanSpec) (*Plan, error) { return scenario.Compile(spec) }

// GeneratorPlan compiles a plan invoking a registered generator — the
// programmatic twin of a {"generator": ..., "params": ...} file.
func GeneratorPlan(generator string, params Params) (*Plan, error) {
	return scenario.CompileGenerator(generator, params)
}

// NewMemStore returns an empty in-process results store.
func NewMemStore() *MemStore { return store.NewMem() }

// OpenDirStore opens (creating if needed) a directory-backed results
// store. The directory can be shared across runs, processes and
// machines; entries are integrity-checked on read.
func OpenDirStore(dir string) (*DirStore, error) { return store.OpenDir(dir) }

// ParseShard parses the CLIs' "i/N" shard syntax ("" = all jobs).
func ParseShard(spec string) (Shard, error) { return exp.ParseShard(spec) }

// SetWorkers bounds the experiment engine's simulation goroutines
// (0 restores the default, GOMAXPROCS). Output is identical for any
// value.
func SetWorkers(n int) { exp.SetWorkers(n) }

// DocumentFor rebuilds the plan's figure/table/bound Document from
// recorded results: the plan generator's renderer when one exists, the
// generic results table otherwise. Results are validated against the
// plan's job list first, so replaying a recording against the wrong plan
// fails — with the plan hash and generator named in the error — instead
// of mislabeling rows.
func DocumentFor(p *Plan, results []Result) (*Document, error) {
	doc, err := report.DocumentFor(p.Generator(), p.Jobs, results)
	if err != nil {
		return nil, fmt.Errorf("render plan %s (%s): %w", p.Name(), planLabel(p), err)
	}
	if doc.Title == "" {
		doc.Title = p.Name()
	}
	return doc, nil
}

// planLabel names a plan for error messages: its generator (or job-list
// shape) plus its content hash, so a mismatched replay pinpoints which
// plan the renderer was holding.
func planLabel(p *Plan) string {
	gen := "explicit job list"
	if g := p.Generator(); g != "" {
		gen = "generator " + g
	}
	return fmt.Sprintf("%s, hash %.12s", gen, p.Hash())
}

// Render rebuilds the plan's figure/table/bound text from recorded
// results — the text-backend convenience over DocumentFor, byte-identical
// to the pre-Document pipeline.
func Render(p *Plan, results []Result) (string, error) {
	doc, err := DocumentFor(p, results)
	if err != nil {
		return "", err
	}
	return doc.Text(), nil
}

// RenderTo encodes a document to w with the given backend (nil selects
// text).
func RenderTo(w io.Writer, doc *Document, b Backend) error { return report.RenderTo(w, doc, b) }

// Backends lists the available render-backend names ("text", "html",
// "json") in CLI order.
func Backends() []string { return report.Backends() }

// BackendByName returns the render backend with the given CLI name (""
// selects text).
func BackendByName(name string) (Backend, error) { return report.BackendFor(name) }

// DecodeDocument reads a JSONBackend encoding back into a Document —
// archived documents re-render through any backend without touching the
// original results.
func DecodeDocument(r io.Reader) (*Document, error) { return report.DecodeDocument(r) }

// HasRenderer reports whether a generator has a dedicated figure
// renderer (false means Render falls back to the generic results table).
func HasRenderer(generator string) bool {
	_, ok := report.For(generator)
	return ok
}

// ResultsTableDocument builds the generic one-row-per-job results table
// as a Document.
func ResultsTableDocument(results []Result) *Document { return report.ResultsTable(results) }

// RenderResultsTable formats results as the generic one-row-per-job
// table (text encoding).
func RenderResultsTable(results []Result) string { return report.ResultsTable(results).Text() }

// CheckResults validates recorded results against a plan's job list
// (count and IDs) without rendering.
func CheckResults(p *Plan, results []Result) error { return report.Check(p.Jobs, results) }

// DeriveFromResults re-runs the detection half of the methodology over a
// recorded derivation block (job 0 the δnop calibration, jobs 1.. the k
// sweep). No simulation runs.
func DeriveFromResults(p *Plan, results []Result) (*Derivation, error) {
	return report.DerivationFrom(p.Jobs, results)
}

// ReadResultsFile reads a complete (unsharded or merged) JSONL results
// file back into job order, rejecting shard fragments and rows written
// by a newer schema.
func ReadResultsFile(path string) ([]Result, error) { return scenario.ReadResultsFile(path) }

// WriteResults writes results as the JSONL row stream a Session produces
// (row i carries job index i).
func WriteResults(w io.Writer, results []Result) error { return scenario.WriteResults(w, results) }

// WriteResultsFile writes results as a JSONL file (see WriteResults).
func WriteResultsFile(path string, results []Result) error {
	return scenario.WriteResultsFile(path, results)
}

// MergeResults recombines per-shard JSONL files into the byte stream an
// unsharded run would have produced (written to w when non-nil) and
// returns the decoded rows in job order.
func MergeResults(w io.Writer, files []string) ([]Result, error) {
	_, results, err := scenario.MergeFiles(w, files)
	return results, err
}

// SameFilePath reports whether two paths refer to the same file — the
// guard the CLIs use to refuse a merge output that aliases one of its
// inputs.
func SameFilePath(a, b string) bool { return scenario.SamePath(a, b) }

// ImportResults records a plan's results into a store under their job
// hashes — archive ingestion: a merged JSONL file measured elsewhere
// becomes servable rows here. Results must line up with the plan's job
// list.
func ImportResults(st Store, p *Plan, results []Result) error {
	if err := CheckResults(p, results); err != nil {
		return err
	}
	if pr, ok := st.(store.PlanRecorder); ok {
		if err := pr.PutPlan(p); err != nil {
			return err
		}
	}
	hashes := p.JobHashes()
	for i, r := range results {
		if err := st.Put(hashes[i], r); err != nil {
			return err
		}
	}
	return nil
}

// Summary derives ubd on each configuration with both the methodology
// (auto-extending in-process sweep) and the naive baseline — the
// headline table. It uses load kernels: the store path is exercised by
// Fig. 7(b), whose slowdown is flat beyond one tooth, so no period
// exists to detect — exactly the paper's argument for using loads. The
// configurations derive concurrently on the experiment engine's pool.
func Summary(cfgs ...Config) ([]SummaryRow, error) {
	return exp.Map(len(cfgs), func(i int) (SummaryRow, error) {
		cfg := cfgs[i]
		r, err := core.NewSimRunner(cfg)
		if err != nil {
			return SummaryRow{}, err
		}
		row := SummaryRow{Arch: cfg.Name, Type: "load", ActualUBD: cfg.UBD()}
		res, err := core.Derive(r, core.Options{Type: OpLoad, AutoExtend: true})
		if err != nil {
			row.Err = err.Error()
		}
		if res != nil {
			row.DerivedUBDm = res.UBDm
			row.PeriodK = res.PeriodK
			row.DeltaNop = res.DeltaNop
			row.Confidence = res.Confidence.Score()
		}
		nv, err := core.NaiveUBDM(r, OpLoad)
		if err != nil {
			return SummaryRow{}, err
		}
		row.NaiveUBDm = nv.UBDm
		return row, nil
	})
}

// SummaryDocument builds the headline table as a complete document
// (heading included), renderable through any backend.
func SummaryDocument(rows []SummaryRow) *Document { return report.SummaryDocument(rows) }

// StringV wraps a string cell.
func StringV(v string) Value { return report.StringV(v) }

// PlatformByName returns a stock platform by its CLI spelling
// ("ref", "var", "toy"; "" is ref).
func PlatformByName(name string) (Config, error) { return sim.ByName(name) }

// HistogramFromDense wraps a dense count array (e.g. Measurement.
// GammaHist) in a renderable Histogram.
func HistogramFromDense(counts []uint64) *Histogram { return stats.FromDense(counts) }
