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
// The streaming core (Stream, StreamShard, Sink) delivers results
// incrementally — each result reaches the sink as soon as its
// predecessors have, not after the whole batch — so sweeps write JSONL
// rows (JSONLSink) while later jobs are still running, and Shard splits
// one job list deterministically across machines; the merged shard
// outputs are byte-identical to an unsharded run (MergeJSONL). Map/MapN
// are thin batch-collecting wrappers over the same core.
//
// The default worker count is GOMAXPROCS; CLIs expose it as -workers and
// a value of 1 recovers the fully serial execution on the caller's
// goroutine (no pool is spun up at all).
package exp

import (
	"context"
	"runtime"
	"sync/atomic"
)

var defaultWorkers atomic.Int64

// active counts worker goroutines currently reserved by running batches.
// Every parallel batch claims its workers from the shared Workers()
// budget via an atomic compare-and-swap (reserve), so nested fan-out —
// e.g. a Derive k-sweep inside an ablation job — shrinks to whatever
// budget remains (typically serial execution on its own worker) instead
// of multiplying concurrency to workers².
var active atomic.Int64

// reserve atomically claims up to want worker slots from the engine-wide
// budget and returns how many it got (possibly 0). The caller must return
// the slots with active.Add(-granted) when the batch finishes.
func reserve(want int) int {
	for {
		a := active.Load()
		avail := int64(Workers()) - a
		if avail < 1 {
			return 0
		}
		g := int64(want)
		if g > avail {
			g = avail
		}
		if active.CompareAndSwap(a, a+g) {
			return int(g)
		}
	}
}

// Workers returns the engine's current default worker count: the last
// value installed with SetWorkers, or GOMAXPROCS when unset.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers installs the default worker count used by Map. Values < 1
// reset to the GOMAXPROCS default. It is safe for concurrent use, but is
// intended to be called once at startup (CLI -workers flag).
func SetWorkers(n int) {
	if n < 1 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Map runs fn(0), fn(1), ..., fn(n-1) across the default worker pool and
// returns the results ordered by index. See MapN.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN(Workers(), n, fn)
}

// MapN runs fn(0..n-1) across at most workers goroutines — further
// bounded by the engine-wide Workers() budget, which parallel batches
// share (a batch nested inside another batch's worker typically gets no
// extra goroutines and runs serially) — and returns the n results ordered
// by index. If any job fails, the error of the lowest-indexed failing job
// is returned and the results are nil regardless of worker count: the
// serial path stops at the first failure while the parallel path finishes
// the batch, so partial results are deliberately not exposed.
//
// MapN is a thin batch-collecting wrapper over the streaming engine
// (StreamShard); callers that can consume results incrementally should
// stream instead of collecting.
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := StreamShard(context.Background(), Shard{}, workers, n, fn, SinkFunc[T](func(i int, v T) error {
		out[i] = v
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}
