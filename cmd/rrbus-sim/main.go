// Command rrbus-sim runs one workload on a simulated platform and dumps
// the measurement: execution time, request counts, utilization and the
// NGMP-style PMC snapshot. Tasks are named EEMBC-like profiles or kernel
// specs; -scenario runs a declarative scenario file's jobs instead.
//
// Single runs participate in the same Plan→Run→Store→Render pipeline as
// the batch CLIs: -out records the run as a self-describing JSONL
// Result row (replayable and mergeable like any sweep's), and -store
// consults the content-addressed results store first — a run whose
// scenario was already recorded (by any CLI) is served from the store
// without simulating.
//
// Usage:
//
//	rrbus-sim -scua canrdr -contenders matrix,tblook,pntrch
//	rrbus-sim -arch var -scua rsk:load -contenders rsk:load,rsk:load,rsk:load -gammas
//	rrbus-sim -scua rsknop:store:12 -contenders rsk:store,rsk:store,rsk:store
//	rrbus-sim -scua rsk:load -contenders rsk:load,rsk:load,rsk:load -out run.jsonl
//	rrbus-sim -scua rsk:load -contenders rsk:load,rsk:load,rsk:load -store results/
//	rrbus-sim -scenario examples/scenarios/tdma.json
//	rrbus-sim -scenario examples/scenarios/tdma.json -format json
//	rrbus-sim -no-fast-forward -scenario examples/scenarios/tdma.json -out legacy.jsonl
//	rrbus-sim -no-steady-state -scenario examples/scenarios/tdma.json -out event.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rrbus"
	"rrbus/internal/cli"
)

const prog cli.Program = "rrbus-sim"

func main() {
	arch := flag.String("arch", "ref", "platform: ref, var or toy")
	scuaSpec := flag.String("scua", "rsk:load", "measured task: profile name, rsk:<load|store>, rsknop:<load|store>:<k>, nop[:<n>], or l2miss:<load|store>")
	contSpec := flag.String("contenders", "", "comma-separated contender tasks (same syntax)")
	warmup := flag.Uint64("warmup", 2, "warmup iterations")
	iters := flag.Uint64("iters", 10, "measured iterations")
	seed := flag.Uint64("seed", 1, "profile generator seed")
	gammas := flag.Bool("gammas", false, "print the per-request contention histogram")
	workers := flag.Int("workers", 0, "simulation worker goroutines for scenario batches (0 = GOMAXPROCS; output is identical for any value)")
	scenarioFile := flag.String("scenario", "", "run a scenario file's jobs and print the results table")
	out := flag.String("out", "", "record the run as a self-describing JSONL Result row to this file (\"-\" = stdout)")
	storeDir := flag.String("store", "", "content-addressed results store directory: serve recorded runs, record fresh ones")
	format := flag.String("format", "text", "render backend for the -scenario results table: text, html or json")
	noFF := flag.Bool("no-fast-forward", false, "execute cycle-by-cycle instead of event-driven (engine modes: default = event-driven + steady-state memoization; -no-steady-state = event-driven only; -no-fast-forward = cycle-by-cycle oracle; results are bit-identical across all three, CI diffs them)")
	noSS := flag.Bool("no-steady-state", false, "execute every event instead of extrapolating detected steady-state periods (results are identical; CI diffs the modes)")
	flag.Parse()
	engine := rrbus.EngineSteady
	switch {
	case *noFF:
		engine = rrbus.EngineOracle
	case *noSS:
		engine = rrbus.EngineEvent
	}
	backend, err := rrbus.BackendByName(*format)
	prog.Fail(err)
	st := prog.OpenStore(*storeDir)

	if *scenarioFile != "" {
		prog.RejectWithScenario("arch", "scua", "contenders", "warmup", "iters", "seed", "gammas")
		plan, err := rrbus.LoadPlan(*scenarioFile)
		prog.Fail(err)
		// First SIGINT/SIGTERM drains the batch gracefully (completed
		// rows flush to the store and -out), a second one kills it.
		ctx, stop := rrbus.SignalContext()
		defer stop()
		sess := &rrbus.Session{Store: st, Workers: *workers, Retry: rrbus.DefaultRetry, Engine: engine}
		if *out != "" {
			err = sess.RunToFileContext(ctx, plan, *out)
			prog.ReportStore(sess, st)
			prog.ExitIfInterrupted(err, st)
			prog.Fail(err)
			return
		}
		results, err := sess.RunAllContext(ctx, plan)
		prog.ReportStore(sess, st)
		prog.ExitIfInterrupted(err, st)
		prog.Fail(err)
		prog.Fail(rrbus.RenderTo(os.Stdout, rrbus.ResultsTableDocument(results), backend))
		return
	}
	if *format != "text" {
		fmt.Fprintln(os.Stderr, "rrbus-sim: -format needs -scenario (single runs print the measurement report)")
		os.Exit(2)
	}

	// Classic single run, expressed as a one-job plan so the row it
	// records, the store key it reuses and the plan manifest it leaves
	// behind are exactly what a batch CLI would produce for the same
	// scenario. (The scenario name is labeling only — it becomes the
	// job ID without entering the content hash.)
	var contenders []string
	if *contSpec != "" {
		for _, spec := range strings.Split(*contSpec, ",") {
			contenders = append(contenders, strings.TrimSpace(spec))
		}
	}
	sc := rrbus.Scenario{
		Name:     *scuaSpec,
		Platform: rrbus.PlatformSpec{Arch: *arch},
		Workload: rrbus.WorkloadSpec{Scua: *scuaSpec, Contenders: contenders, Seed: *seed},
		Protocol: rrbus.Protocol{Warmup: *warmup, Iters: *iters, Gammas: *gammas},
	}
	plan, err := rrbus.CompilePlan(&rrbus.PlanSpec{Scenario: &sc})
	prog.Fail(err)
	job := plan.Jobs[0]
	// Construction-only platform build for the report header; programs
	// are built once, inside RunFull, and only when the run simulates.
	cfg, err := sc.Platform.Build()
	prog.Fail(err)

	var res rrbus.Result
	var m *rrbus.Measurement
	scuaName := *scuaSpec
	served, healed := false, false
	if st != nil {
		// A Session would serve the same hash, but it returns only the
		// Result row; the single-run report wants the full Measurement
		// on a miss, so the read side is inlined while the record side
		// goes through the same ImportResults the batch merge uses —
		// row plus plan manifest, on hits too, so every single run is
		// auditable in the store's plan index. A corrupt entry heals as
		// in a Session: it is quarantined and the run simulates afresh.
		hash := plan.JobHashes()[0]
		got, ok, err := st.Get(hash)
		if q, canHeal := st.(rrbus.Quarantiner); canHeal && rrbus.IsCorruptStoreError(err) {
			prog.Fail(q.Quarantine(hash, err.Error()))
			healed, err = true, nil
		}
		prog.Fail(err)
		if ok {
			got.ID = job.ID
			res, served = got, true
		}
	}
	if !served {
		var w rrbus.Workload
		res, m, w, err = job.RunFull(engine)
		prog.Fail(err)
		scuaName = w.Scua.Name
	}
	if st != nil {
		prog.Fail(rrbus.ImportResults(st, plan, []rrbus.Result{res}))
	}
	if healed {
		prog.ReportHealed(1, 1)
	}

	if *out == "-" {
		// Row-to-stdout mode: emit only the parseable JSONL stream (the
		// human report would corrupt it); batch consumers read it like
		// any sweep recording.
		prog.Fail(rrbus.WriteResults(os.Stdout, []rrbus.Result{res}))
		return
	}

	fmt.Printf("platform       %s (%d cores, lbus=%d, ubd=%d)\n", cfg.Name, cfg.Cores, cfg.BusLatency(), cfg.UBD())
	fmt.Printf("scua           %s (%d measured iterations)\n", scuaName, res.Iters)
	if served {
		// A store-served run carries the recorded row, not the full
		// Measurement; print the row's summary (the PMC snapshot and
		// cache statistics are not recorded).
		fmt.Printf("cycles         %d  (served from store %s)\n", res.Cycles, *storeDir)
		fmt.Printf("bus requests   %d (max γ %d, mean γ %.2f)\n", res.Requests, res.MaxGamma, res.AvgGamma)
		fmt.Printf("bus util       %.1f%% total\n", res.Utilization*100)
		if *gammas {
			fmt.Println("\ncontention-delay histogram (scua requests):")
			fmt.Print(rrbus.HistogramFromDense(res.GammaHist).String())
		}
	} else {
		fmt.Printf("cycles         %d\n", m.Cycles)
		fmt.Printf("bus requests   %d (max γ %d, mean γ %.2f)\n", m.Requests, m.MaxGamma, m.AvgGamma)
		fmt.Printf("bus util       %.1f%% total", m.Utilization*100)
		for p, u := range m.PerCoreUtilization {
			if p < cfg.Cores {
				fmt.Printf("  c%d=%.1f%%", p, u*100)
			} else {
				fmt.Printf("  mem=%.1f%%", u*100)
			}
		}
		fmt.Println()
		fmt.Printf("DL1 hit rate   %.1f%% (%d accesses)\n", m.DL1.HitRate()*100, m.DL1.Accesses())
		fmt.Printf("L2 accesses    %d (hit rate %.1f%%)\n", m.L2.Accesses(), m.L2.HitRate()*100)
		fmt.Printf("DRAM           %d reads, %d writes\n", m.Mem.Reads, m.Mem.Writes)
		fmt.Println("\nPMC snapshot (scua core):")
		fmt.Print(m.PMC.String())
		if *gammas {
			fmt.Println("\ncontention-delay histogram (scua requests):")
			fmt.Print(rrbus.HistogramFromDense(m.GammaHist).String())
		}
	}

	if *out != "" {
		prog.Fail(rrbus.WriteResultsFile(*out, []rrbus.Result{res}))
		fmt.Fprintf(os.Stderr, "rrbus-sim: recorded result row to %s\n", *out)
	}
}
