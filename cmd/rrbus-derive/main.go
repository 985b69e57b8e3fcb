// Command rrbus-derive runs the paper's full measurement-based methodology
// on a simulated platform and reports the derived upper-bound delay with
// its confidence assessment, next to the naive det/nr baseline and Eq. 1
// ground truth.
//
// Every measurement runs as a plan through the library's
// Plan→Run→Store→Render pipeline. The flag mode builds the derivation
// plan from its flags and auto-extends it: while the sweep covers fewer
// than two saw-tooth periods, the same plan is compiled with kmax doubled
// and run again, each pass simulating only the k the store does not hold
// yet. The naive baseline is one more job on the same session (the plain
// rsk against Nc−1 rsk, isolation-paired). -store names a results store
// directory that serves and records every job of both, so a re-run
// simulates nothing; without it the passes share an in-memory store.
//
// A scenario file with the "derive" generator compiles to a
// content-addressed plan fixing the k range instead: -shard streams this
// machine's share of the (δnop + per-k) jobs to JSONL, -merge recombines
// the shard files and runs the period detection over the reassembled
// series, -from re-derives from an already-merged results file without
// simulating at all, and -store serves any job a previous run already
// recorded — a derivation over a k range that overlaps an earlier fig7
// sweep simulates only the delta. The scenario path measures no naive
// baseline, so its -json report leaves naive_ubdm out. The recorded
// measurements are the single source of truth, so a replayed or
// store-served derivation is byte-identical to the live one.
//
// Usage:
//
//	rrbus-derive -arch ref
//	rrbus-derive -arch var -type store -kmax 80
//	rrbus-derive -cores 6 -l2hit 12 -json
//	rrbus-derive -arch ref -store results/
//	rrbus-derive -scenario derive.json -store results/
//	rrbus-derive -scenario derive.json -shard 0/2 -out shard0.jsonl
//	rrbus-derive -scenario derive.json -merge shard0.jsonl shard1.jsonl
//	rrbus-derive -scenario derive.json -from merged.jsonl
//	rrbus-derive -scenario derive.json -format html > derive.html
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rrbus"
	"rrbus/internal/cli"
)

const prog cli.Program = "rrbus-derive"

type jsonReport struct {
	Arch       string                     `json:"arch"`
	Type       string                     `json:"type"`
	ActualUBD  int                        `json:"actual_ubd"`
	UBDm       int                        `json:"ubdm"`
	PeriodK    int                        `json:"period_k"`
	DeltaNop   float64                    `json:"delta_nop"`
	Methods    map[rrbus.PeriodMethod]int `json:"methods"`
	Confidence float64                    `json:"confidence"`
	Notes      []string                   `json:"notes,omitempty"`
	NaiveUBDm  *int                       `json:"naive_ubdm,omitempty"`
	Slowdowns  []float64                  `json:"slowdowns,omitempty"`
	Err        string                     `json:"error,omitempty"`
}

func main() {
	arch := flag.String("arch", "ref", "platform: ref, var, or custom (with -cores/-transfer/-l2hit)")
	typ := flag.String("type", "load", "bus access type of the kernels: load or store")
	cores := flag.Int("cores", 0, "override core count (custom platform)")
	transfer := flag.Int("transfer", 0, "override bus transfer latency")
	l2hit := flag.Int("l2hit", 0, "override L2 hit latency")
	kmin := flag.Int("kmin", 1, "sweep start")
	kmax := flag.Int("kmax", 40, "initial sweep end (auto-extends)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	series := flag.Bool("series", false, "include the slowdown series in the output")
	workers := flag.Int("workers", 0, "simulation worker goroutines for the k-sweep (0 = GOMAXPROCS; output is identical for any value)")
	scenarioFile := flag.String("scenario", "", "derive declaratively from a scenario file (the \"derive\" generator)")
	shardSpec := flag.String("shard", "", "run only every Nth job of the scenario sweep: i/N (requires -scenario and -out)")
	out := flag.String("out", "", "stream the sweep's per-job results as JSONL to this file (\"-\" = stdout)")
	merge := flag.Bool("merge", false, "merge mode: recombine shard JSONL files (args), then detect the period over the merged series")
	from := flag.String("from", "", "replay mode: re-derive from this recorded JSONL results file instead of simulating")
	storeDir := flag.String("store", "", "content-addressed results store directory: serve recorded jobs, record fresh ones")
	format := flag.String("format", "text", "render backend for the scenario derivation report: text, html or json (needs -scenario)")
	flag.Parse()
	backend, err := rrbus.BackendByName(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrbus-derive:", err)
		os.Exit(2)
	}
	if *jsonOut && *format != "text" {
		fmt.Fprintln(os.Stderr, "rrbus-derive: -json is the flat report; -format renders the document — use one or the other")
		os.Exit(2)
	}

	if *scenarioFile != "" || *merge {
		prog.RejectWithScenario("arch", "type", "cores", "transfer", "l2hit", "kmin", "kmax")
		runScenario(*scenarioFile, *shardSpec, *out, *from, *storeDir, *workers, *merge, *jsonOut, *series, backend, flag.Args())
		return
	}
	if *shardSpec != "" || *out != "" || *from != "" {
		fmt.Fprintln(os.Stderr, "rrbus-derive: -shard/-out/-from need -scenario")
		os.Exit(2)
	}
	if *format != "text" {
		fmt.Fprintln(os.Stderr, "rrbus-derive: -format needs -scenario (the flag mode prints the flat report; use -json for machine output)")
		os.Exit(2)
	}
	if _, err := rrbus.PlatformByName(*arch); err != nil {
		fmt.Fprintln(os.Stderr, "rrbus-derive:", err)
		os.Exit(2)
	}
	t := rrbus.OpLoad
	if *typ == "store" {
		t = rrbus.OpStore
	} else if *typ != "load" {
		fmt.Fprintf(os.Stderr, "rrbus-derive: unknown type %q (load|store)\n", *typ)
		os.Exit(2)
	}
	// Non-positive geometry flags keep the base platform's value.
	platform := rrbus.PlatformSpec{Arch: *arch, Cores: max(*cores, 0), Transfer: max(*transfer, 0), L2Hit: max(*l2hit, 0)}
	runFlags(platform, rrbus.DeriveOptions{Type: t, KMin: *kmin, KMax: *kmax}, prog.OpenStore(*storeDir), *workers, *jsonOut, *series)
}

// runFlags is the flag-mode path: the auto-extending derivation and the
// naive baseline run on one Session — over the -store directory, or an
// in-memory store that lets each extension pass reuse the k the previous
// passes measured — and the derive report prints with the naive line.
func runFlags(platform rrbus.PlatformSpec, opt rrbus.DeriveOptions, st rrbus.Store, workers int, jsonOut, series bool) {
	ctx, stop := rrbus.SignalContext()
	defer stop()
	sess := &rrbus.Session{Store: st, Workers: workers, Retry: rrbus.DefaultRetry}
	if st == nil {
		sess.Store = rrbus.NewMemStore()
	}
	d, err := rrbus.RunDerivation(ctx, sess, platform, opt)
	var nv *rrbus.NaiveResult
	if err == nil {
		nv, err = rrbus.NaiveUBDM(ctx, sess, platform, opt.Type)
	}
	prog.ReportStore(sess, st)
	prog.ExitIfInterrupted(err, st)
	prog.Fail(err)

	if jsonOut {
		emitJSON(flatReport(d, nv, series))
		return
	}
	prog.Fail(rrbus.RenderTo(os.Stdout, d.Document(), nil))
	fmt.Printf("naive ubdm          %d cycles (det/nr — underestimates by the injection time)\n", nv.UBDm)
	if d.Err != nil {
		os.Exit(1)
	}
}

// runScenario is the declarative pipeline path: a scenario file (the
// "derive" generator) compiles to the plan; -out streams this shard's
// measurements as JSONL, -merge recombines shard files, -from replays a
// merged file, -store serves and records rows by content hash, and in
// every case the detection half (DeriveFromResults) runs over recorded
// results only. -json/-series apply to the detection report exactly as
// in the flag mode.
func runScenario(path, shardSpec, out, from, storeDir string, workers int, merge, jsonOut, series bool, backend rrbus.Backend, args []string) {
	if path == "" {
		prog.Fail(fmt.Errorf("-merge needs -scenario (the plan defines the k range and platform)"))
	}
	plan, err := rrbus.LoadPlan(path)
	prog.Fail(err)
	if plan.Generator() != "derive" {
		prog.Fail(fmt.Errorf("scenario %s uses generator %q; rrbus-derive needs \"derive\"", path, plan.Generator()))
	}
	st := prog.OpenStore(storeDir)

	var results []rrbus.Result
	switch {
	case from != "":
		if merge || out != "" || shardSpec != "" || st != nil {
			prog.Fail(fmt.Errorf("-from replays an existing recording; it cannot be combined with -merge/-out/-shard/-store"))
		}
		results, err = rrbus.ReadResultsFile(from)
		prog.Fail(err)
		prog.Fail(rrbus.CheckResults(plan, results))
	case merge:
		if len(args) == 0 {
			prog.Fail(fmt.Errorf("-merge needs shard JSONL files as arguments"))
		}
		if shardSpec != "" {
			prog.Fail(fmt.Errorf("-shard applies to measuring, not merging"))
		}
		results = mergeResults(plan, args, out)
		if st != nil {
			prog.Fail(rrbus.ImportResults(st, plan, results))
			fmt.Fprintf(os.Stderr, "rrbus-derive: store: imported %d rows\n", len(results))
		}
		if out == "-" {
			// The merged JSONL rows went to stdout; the derivation
			// report would corrupt the parseable stream (replay it
			// later with -from, like the other CLIs' stdout modes).
			return
		}
	case out != "":
		shard, err := rrbus.ParseShard(shardSpec)
		prog.Fail(err)
		ctx, stop := rrbus.SignalContext()
		defer stop()
		sess := &rrbus.Session{Store: st, Workers: workers, Shard: shard, Retry: rrbus.DefaultRetry}
		err = sess.RunToFileContext(ctx, plan, out)
		prog.ReportStore(sess, st)
		prog.ExitIfInterrupted(err, st)
		prog.Fail(err)
		return
	default:
		if shardSpec != "" {
			prog.Fail(fmt.Errorf("-shard needs -out (a shard alone cannot detect the period)"))
		}
		ctx, stop := rrbus.SignalContext()
		defer stop()
		sess := &rrbus.Session{Store: st, Workers: workers, Retry: rrbus.DefaultRetry}
		results, err = sess.RunAllContext(ctx, plan)
		prog.ReportStore(sess, st)
		prog.ExitIfInterrupted(err, st)
		prog.Fail(err)
	}

	deriveFromResults(plan, results, jsonOut, series, backend)
}

// mergeResults recombines shard JSONL files (optionally saving the
// merged rows to out) and checks the reassembled job list is complete:
// the merge enforces contiguous indices from 0, and the count check
// catches a tail-truncated final shard.
func mergeResults(plan *rrbus.Plan, files []string, out string) []rrbus.Result {
	var w io.Writer
	if out != "" && out != "-" {
		for _, f := range files {
			if rrbus.SameFilePath(out, f) {
				prog.Fail(fmt.Errorf("-out %s is also a merge input; os.Create would truncate it before reading", out))
			}
		}
	}
	if out != "" {
		f := os.Stdout
		if out != "-" {
			var err error
			f, err = os.Create(out)
			prog.Fail(err)
			defer f.Close()
		}
		w = f
	}
	results, err := rrbus.MergeResults(w, files)
	prog.Fail(err)
	if len(results) != len(plan.Jobs) {
		prog.Fail(fmt.Errorf("merged %d results for %d jobs — truncated or missing shard files?", len(results), len(plan.Jobs)))
	}
	return results
}

// deriveFromResults runs the detection half of the methodology on the
// recorded job results (job 0 is the δnop calibration, jobs 1.. the k
// sweep) and prints the report — the shared Render text (so rrbus-derive
// and rrbus-figures render a recording identically), or the -json shape.
// The naive det/nr baseline is left out: it needs a measurement the
// sweep does not take.
func deriveFromResults(plan *rrbus.Plan, results []rrbus.Result, jsonOut, series bool, backend rrbus.Backend) {
	d, err := rrbus.DeriveFromResults(plan, results)
	prog.Fail(err)

	if jsonOut {
		emitJSON(flatReport(d, nil, series))
		return
	}

	doc, err := rrbus.DocumentFor(plan, results)
	prog.Fail(err)
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
	if d.Err != nil {
		os.Exit(1)
	}
}

// flatReport flattens a derivation into the -json report shape. naive is
// the measured det/nr baseline, or nil when none was measured (the
// scenario path), which leaves naive_ubdm out of the report.
func flatReport(d *rrbus.Derivation, naive *rrbus.NaiveResult, series bool) jsonReport {
	typ := "load"
	if d.Type == rrbus.OpStore {
		typ = "store"
	}
	rep := jsonReport{Arch: d.Cfg.Name, Type: typ, ActualUBD: d.Cfg.UBD()}
	if d.Err != nil {
		rep.Err = d.Err.Error()
	}
	fillReport(&rep, d.Res, series)
	if naive != nil {
		rep.NaiveUBDm = &naive.UBDm
	}
	return rep
}

// fillReport copies a derivation result into the JSON report shape.
func fillReport(rep *jsonReport, res *rrbus.DeriveResult, series bool) {
	if res == nil {
		return
	}
	rep.UBDm = res.UBDm
	rep.PeriodK = res.PeriodK
	rep.DeltaNop = res.DeltaNop
	rep.Methods = res.Methods
	rep.Confidence = res.Confidence.Score()
	rep.Notes = res.Confidence.Notes
	if series {
		rep.Slowdowns = res.Slowdowns
	}
}

func emitJSON(rep jsonReport) {
	prog.Fail(writeJSON(os.Stdout, rep))
	if rep.Err != "" {
		os.Exit(1)
	}
}

func writeJSON(w io.Writer, rep jsonReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
