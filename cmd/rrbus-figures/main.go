// Command rrbus-figures regenerates the paper's figures and prints them
// as terminal tables/plots, HTML pages or JSON documents. It is a thin
// caller of the library's public Plan→Run→Store→Document→Backend
// pipeline: a figure name or scenario file compiles to a
// content-addressed Plan, a Session runs its jobs (serving any job the
// results store has already recorded instead of re-simulating it), a
// Render pass rebuilds the figure as a typed Document from the recorded
// rows alone, and a Backend encodes the Document in the -format of your
// choice:
//
//   - -fig runs the named figure's generator live and renders it;
//   - -scenario runs a declarative scenario file (optionally sharded
//     across machines with -shard/-out, recombined with -merge);
//   - -store names a results store directory: jobs already recorded
//     there are served without simulating, fresh rows are recorded, and
//     a warm re-run of a sweep simulates nothing while rendering
//     byte-identical output;
//   - -from replays a recorded JSONL results file through the same
//     renderer, byte-identical to the live run — simulate once,
//     analyze forever;
//   - -format selects the backend: text (default, byte-identical to the
//     classic output), html (self-contained page with inline SVG
//     timelines and sweep charts) or json (schema-versioned document);
//   - -doc re-renders a saved JSON document through any backend without
//     touching the original results.
//
// Usage:
//
//	rrbus-figures -fig all
//	rrbus-figures -fig 7a -kmax 60 -iters 2000
//	rrbus-figures -fig 6a -count 8 -seed 1
//	rrbus-figures -fig 7b -format html > fig7b.html
//	rrbus-figures -scenario examples/scenarios/wrr.json
//	rrbus-figures -scenario sweep.json -store results/   # cold: simulates
//	rrbus-figures -scenario sweep.json -store results/   # warm: serves
//	rrbus-figures -scenario sweep.json -shard 0/2 -out shard0.jsonl
//	rrbus-figures -merge -out merged.jsonl shard0.jsonl shard1.jsonl
//	rrbus-figures -scenario sweep.json -from merged.jsonl   # replay
//	rrbus-figures -scenario sweep.json -format json > doc.json
//	rrbus-figures -doc doc.json -format html > page.html
//
// Figures: 2, 3, 4, 5, 6a, 6b, 7a, 7b, table, abl-arb, abl-dnop,
// abl-scaling.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"rrbus"
	"rrbus/internal/cli"
)

const prog cli.Program = "rrbus-figures"

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (2,3,4,5,6a,6b,7a,7b,table,abl-arb,abl-dnop,abl-scaling,all)")
	kmax := flag.Int("kmax", 60, "nop sweep upper bound for fig 7a/7b")
	iters := flag.Uint64("iters", 100, "measured iterations per run for fig 7a/7b")
	count := flag.Int("count", 8, "number of random workloads for fig 6a")
	seed := flag.Uint64("seed", 1, "workload generator seed")
	workers := flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS; output is identical for any value)")
	scenarioFile := flag.String("scenario", "", "run a scenario file instead of a built-in figure")
	shardSpec := flag.String("shard", "", "run only every Nth job of the scenario: i/N (requires -out)")
	out := flag.String("out", "", "stream results as JSONL to this file (\"-\" = stdout)")
	merge := flag.Bool("merge", false, "merge mode: recombine shard JSONL files (args) into -out and render")
	from := flag.String("from", "", "replay mode: render from this recorded JSONL results file instead of simulating")
	storeDir := flag.String("store", "", "content-addressed results store directory: serve recorded jobs, record fresh ones")
	format := flag.String("format", "text", "render backend: text, html or json")
	docFile := flag.String("doc", "", "re-render this saved JSON document through -format (no simulation, no scenario)")
	flag.Parse()
	backend, err := rrbus.BackendByName(*format)
	prog.Fail(err)

	if *docFile != "" {
		// Reject conflicting modes before touching the filesystem:
		// OpenStore would create the -store directory tree even though
		// the invocation is about to be refused.
		if *scenarioFile != "" || *merge || *from != "" || *storeDir != "" || *out != "" || *shardSpec != "" {
			prog.Fail(fmt.Errorf("-doc re-renders a saved document; it cannot be combined with -scenario/-merge/-from/-store/-out/-shard"))
		}
		prog.RejectWithScenario("fig", "kmax", "iters", "count", "seed")
		f, err := os.Open(*docFile)
		prog.Fail(err)
		doc, err := rrbus.DecodeDocument(f)
		f.Close()
		prog.Fail(err)
		prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
		return
	}
	st := prog.OpenStore(*storeDir)
	if *merge || *scenarioFile != "" {
		prog.RejectWithScenario("fig", "kmax", "iters", "count", "seed")
	}
	if *merge {
		if *from != "" {
			prog.Fail(fmt.Errorf("-from replays one complete file; -merge recombines shards — use one or the other"))
		}
		mergeShards(*out, *scenarioFile, st, backend, flag.Args())
		return
	}
	// Every path below may run a Session; the first SIGINT/SIGTERM drains
	// it gracefully (in-flight jobs finish, completed rows flush to the
	// store) and a second one kills the process.
	ctx, stop := rrbus.SignalContext()
	defer stop()
	if *scenarioFile != "" {
		runScenario(ctx, *scenarioFile, *shardSpec, *out, *from, st, *workers, backend)
		return
	}
	if *shardSpec != "" || *out != "" {
		fmt.Fprintln(os.Stderr, "rrbus-figures: -shard/-out need -scenario or -merge")
		os.Exit(2)
	}

	// Classic figure names, each backed by a scenario generator (so -fig
	// and -scenario render through the same report code), except the
	// summary table, whose derivations auto-extend pass by pass.
	ref, err := rrbus.PlatformByName("ref")
	prog.Fail(err)
	type figSpec struct {
		name      string
		generator string
		params    rrbus.Params
	}
	specs := []figSpec{
		{"2", "fig2", nil},
		{"3", "fig3", rrbus.Params{"max_delta": 13}},
		{"4", "fig4", rrbus.Params{"max_delta": 3 * ref.UBD()}},
		{"5", "fig5", rrbus.Params{"ks": []int{1, 2, 5, 6}}},
		{"6a", "fig6a", rrbus.Params{"count": *count, "seed": *seed}},
		{"6b", "fig6b", nil},
		{"7a", "fig7a", rrbus.Params{"kmax": *kmax, "iters": *iters}},
		{"7b", "fig7b", rrbus.Params{"kmax": *kmax, "iters": *iters}},
		{"table", "", nil},
		{"abl-arb", "abl-arb", nil},
		{"abl-dnop", "abl-dnop", rrbus.Params{"max_nop": 3}},
		{"abl-scaling", "abl-scaling", nil},
	}

	// Multiple figures combine into ONE document rendered once at the
	// end: text concatenates block-sequentially (bytes unchanged vs.
	// per-figure printing), while html stays a single valid page and
	// json a single decodable document.
	combined := &rrbus.Document{Title: "rrbus figures"}
	did := false
	for _, s := range specs {
		if *fig != "all" && *fig != s.name {
			continue
		}
		did = true
		if s.generator == "" {
			if *from != "" {
				prog.Fail(fmt.Errorf("-fig table runs auto-extending derivation plans and cannot replay from one JSONL recording"))
			}
			appendDoc(combined, *fig, rrbus.SummaryDocument(summary(ctx, st, *workers)))
			continue
		}
		if *from != "" && *fig == "all" {
			prog.Fail(fmt.Errorf("-from needs a single -fig (one recording holds one job list)"))
		}
		if *from != "" && st != nil {
			prog.Fail(fmt.Errorf("-from renders an existing recording; it cannot be combined with -store"))
		}
		plan, err := rrbus.GeneratorPlan(s.generator, s.params)
		prog.Fail(err)
		results, err := obtainResults(ctx, plan, st, *workers, *from)
		prog.Fail(err)
		doc, err := rrbus.DocumentFor(plan, results)
		prog.Fail(err)
		appendDoc(combined, *fig, doc)
	}
	if !did {
		fmt.Fprintf(os.Stderr, "rrbus-figures: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	prog.Fail(rrbus.RenderTo(os.Stdout, combined, backend))
}

// appendDoc folds one figure's document into the combined output. A
// single -fig run keeps the figure's own title and generator labeling;
// -fig all keeps the combined document's.
func appendDoc(combined *rrbus.Document, fig string, doc *rrbus.Document) {
	if fig != "all" {
		combined.Title = doc.Title
		combined.Generator = doc.Generator
	}
	combined.Add(doc.Blocks...)
}

// summary derives the headline table on ref and var. Every pass runs on
// one Session over the -store directory, or over an in-memory store that
// lets each extension pass reuse the k the previous passes measured.
func summary(ctx context.Context, st rrbus.Store, workers int) []rrbus.SummaryRow {
	sess := &rrbus.Session{Store: st, Workers: workers, Retry: rrbus.DefaultRetry}
	if st == nil {
		sess.Store = rrbus.NewMemStore()
	}
	rows, err := rrbus.Summary(ctx, sess, rrbus.PlatformSpec{Arch: "ref"}, rrbus.PlatformSpec{Arch: "var"})
	prog.ReportStore(sess, st)
	prog.ExitIfInterrupted(err, st)
	prog.Fail(err)
	return rows
}

// obtainResults produces one result per job of the plan: replayed from a
// recorded JSONL file when path is set, run through a (store-aware)
// session otherwise. Either way the renderers downstream see the same
// thing — recorded results.
func obtainResults(ctx context.Context, plan *rrbus.Plan, st rrbus.Store, workers int, path string) ([]rrbus.Result, error) {
	if path != "" {
		return rrbus.ReadResultsFile(path)
	}
	sess := &rrbus.Session{Store: st, Workers: workers, Retry: rrbus.DefaultRetry}
	results, err := sess.RunAllContext(ctx, plan)
	prog.ReportStore(sess, st)
	prog.ExitIfInterrupted(err, st)
	return results, err
}

// runScenario compiles a scenario file and either streams this shard's
// share of its jobs as JSONL to -out, or renders the plan's figure from
// results — run through the session, or replayed from -from.
func runScenario(ctx context.Context, path, shardSpec, out, from string, st rrbus.Store, workers int, backend rrbus.Backend) {
	plan, err := rrbus.LoadPlan(path)
	prog.Fail(err)
	shard, err := rrbus.ParseShard(shardSpec)
	prog.Fail(err)

	if from != "" {
		if out != "" || !shard.All() || st != nil {
			prog.Fail(fmt.Errorf("-from renders an existing recording; it cannot be combined with -out/-shard/-store"))
		}
		results, err := rrbus.ReadResultsFile(from)
		prog.Fail(err)
		renderPlan(plan, path, results, backend)
		return
	}
	if out == "" {
		if !shard.All() {
			prog.Fail(fmt.Errorf("-shard %s without -out would drop the shard rows; add -out", shard))
		}
		sess := &rrbus.Session{Store: st, Workers: workers, Retry: rrbus.DefaultRetry}
		results, err := sess.RunAllContext(ctx, plan)
		prog.ReportStore(sess, st)
		prog.ExitIfInterrupted(err, st)
		prog.Fail(err)
		renderPlan(plan, path, results, backend)
		return
	}

	sess := &rrbus.Session{Store: st, Workers: workers, Shard: shard, Retry: rrbus.DefaultRetry}
	err = sess.RunToFileContext(ctx, plan, out)
	prog.ReportStore(sess, st)
	prog.ExitIfInterrupted(err, st)
	prog.Fail(err)
}

// renderPlan renders a plan's recorded results: the generator's figure
// renderer when one exists, the generic results table (behind a
// scenario heading) otherwise. Live runs, store-served runs, -from
// replays and -merge all funnel through here, which is what makes their
// output byte-identical.
func renderPlan(plan *rrbus.Plan, path string, results []rrbus.Result, backend rrbus.Backend) {
	doc, err := rrbus.DocumentFor(plan, results)
	prog.Fail(err)
	if !rrbus.HasRenderer(plan.Generator()) {
		if gen := plan.Generator(); gen != "" {
			// A figure-shaped plan quietly degrading to the generic table
			// would be indistinguishable from the intended rendering;
			// name the fallback.
			fmt.Fprintf(os.Stderr, "rrbus-figures: note: generator %q has no figure renderer; rendering the generic results table\n", gen)
		}
		name := plan.Name()
		if plan.Spec.Name == "" && plan.Spec.Generator == "" {
			name = path // an unnamed explicit job list: the file is the only label
		}
		doc.Prepend(rrbus.HeadingBlock{Level: 1, Text: fmt.Sprintf("scenario %s: %d jobs", name, len(plan.Jobs))})
	}
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
}

// mergeShards recombines shard JSONL files into the unsharded byte
// stream and renders the reassembled results to stdout (when the merged
// rows go to a file) so a sharded sweep ends with the same artifact an
// unsharded run prints. Passing the plan via -scenario additionally
// validates the merged rows against the compiled job list — the only way
// to catch a tail-truncated final shard — selects the plan's figure
// renderer, and, with -store, imports the merged rows into the store so
// a sweep measured elsewhere becomes servable here.
func mergeShards(out, scenarioFile string, st rrbus.Store, backend rrbus.Backend, files []string) {
	if len(files) == 0 {
		prog.Fail(fmt.Errorf("-merge needs shard JSONL files as arguments"))
	}
	if st != nil && scenarioFile == "" {
		prog.Fail(fmt.Errorf("-merge -store needs -scenario (job hashes come from the plan)"))
	}
	for _, f := range files {
		if out != "" && out != "-" && rrbus.SameFilePath(out, f) {
			prog.Fail(fmt.Errorf("-out %s is also a merge input; os.Create would truncate it before reading", out))
		}
	}

	var w io.Writer = os.Stdout
	toStdout := out == "" || out == "-"
	if !toStdout {
		f, err := os.Create(out)
		prog.Fail(err)
		defer f.Close()
		w = f
	}
	results, err := rrbus.MergeResults(w, files)
	prog.Fail(err)

	var plan *rrbus.Plan
	if scenarioFile != "" {
		plan, err = rrbus.LoadPlan(scenarioFile)
		prog.Fail(err)
		if len(results) != len(plan.Jobs) {
			prog.Fail(fmt.Errorf("merged %d rows for %d jobs — truncated or missing shard files?", len(results), len(plan.Jobs)))
		}
		if st != nil {
			prog.Fail(rrbus.ImportResults(st, plan, results))
			fmt.Fprintf(os.Stderr, "rrbus-figures: store: imported %d rows\n", len(results))
		}
	}
	if toStdout {
		return
	}
	if plan != nil {
		renderPlan(plan, scenarioFile, results, backend)
		return
	}
	doc := rrbus.ResultsTableDocument(results)
	doc.Prepend(rrbus.HeadingBlock{Level: 1, Text: fmt.Sprintf("merged %d shards: %d jobs", len(files), len(results))})
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
}
