// Package exp is the experiment engine: it fans batches of independent
// simulation jobs out across a bounded worker pool while preserving the
// exact observable behavior of a serial run.
//
// Every figure, table and ablation of the paper's evaluation is a batch of
// mutually independent cycle-accurate simulations (each builds its own
// sim.System), so they parallelize embarrassingly. The engine's contract
// is strict determinism:
//
//   - Results are delivered ordered by job index, never by completion
//     order. A batch run with 1 worker and with N workers produces
//     byte-identical downstream output.
//   - Each job must be self-contained: it may share read-only inputs
//     (configs, kernel builders) but must not mutate shared state. All
//     simulator state (System, Cache, Bus, Controller) is created inside
//     the job.
//   - Errors are reported deterministically: the error of the
//     lowest-indexed failing job wins, regardless of scheduling.
//
// The streaming core (StreamShard, Sink) delivers results
// incrementally — each result reaches the sink as soon as its
// predecessors have, not after the whole batch — so sweeps write JSONL
// rows (JSONLSink) while later jobs are still running, and Shard splits
// one job list deterministically across machines; the merged shard
// outputs are byte-identical to an unsharded run (MergeJSONL).
//
// Every batch takes its worker count from the caller (the CLIs' -workers
// flag reaches it through store.Session.Workers, where 0 means
// GOMAXPROCS); a count of 1 recovers the fully serial execution on the
// caller's goroutine (no pool is spun up at all). Each batch bounds only
// its own goroutines: there is no engine-wide budget, so a caller running
// batches concurrently sizes them itself.
package exp
