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
// The default worker count is GOMAXPROCS; CLIs expose it as -workers and
// a value of 1 recovers the fully serial execution on the caller's
// goroutine (no pool is spun up at all). Each batch bounds only its own
// goroutines: there is no engine-wide budget, so a caller running
// batches concurrently sizes them itself.
package exp

import (
	"runtime"
	"sync/atomic"
)

var defaultWorkers atomic.Int64

// Workers returns the engine's current default worker count: the last
// value installed with SetWorkers, or GOMAXPROCS when unset.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers installs the default worker count (Workers). Values < 1
// reset to the GOMAXPROCS default. It is safe for concurrent use, but is
// intended to be called once at startup (CLI -workers flag).
func SetWorkers(n int) {
	if n < 1 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}
