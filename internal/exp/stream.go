package exp

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Shard selects a deterministic subset of a job batch: the jobs whose
// index i satisfies i % Count == Index. The zero value selects every job
// (an unsharded run). Sharding composes with streaming so a large sweep
// splits across machines: each machine runs its shard with the same job
// list and the merged per-shard outputs are byte-identical to an
// unsharded run (see MergeJSONL).
type Shard struct {
	// Index identifies this shard, 0 <= Index < Count.
	Index int
	// Count is the total number of shards; values < 2 mean "all jobs".
	Count int
}

// Validate checks the shard coordinates.
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("exp: negative shard %d/%d", s.Index, s.Count)
	}
	if s.Count >= 1 && s.Index >= s.Count {
		return fmt.Errorf("exp: shard index %d out of range for %d shards", s.Index, s.Count)
	}
	return nil
}

// All reports whether the shard selects every job.
func (s Shard) All() bool { return s.Count < 2 }

// Owns reports whether job index i belongs to this shard.
func (s Shard) Owns(i int) bool { return s.All() || i%s.Count == s.Index }

// String renders the shard as "index/count" ("" for the full batch).
func (s Shard) String() string {
	if s.All() {
		return ""
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShard parses "i/N" shard syntax (the CLIs' -shard flag). The empty
// string is the full, unsharded batch.
func ParseShard(spec string) (Shard, error) {
	if spec == "" {
		return Shard{}, nil
	}
	idx, count, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("exp: shard %q is not i/N", spec)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return Shard{}, fmt.Errorf("exp: shard index %q: %w", idx, err)
	}
	n, err := strconv.Atoi(count)
	if err != nil {
		return Shard{}, fmt.Errorf("exp: shard count %q: %w", count, err)
	}
	s := Shard{Index: i, Count: n}
	if n < 1 {
		return Shard{}, fmt.Errorf("exp: shard count must be >= 1, got %d", n)
	}
	return s, s.Validate()
}

// Sink consumes streamed results. Emit is called from the streaming
// goroutine only (never concurrently), strictly in ascending job-index
// order, as soon as each result's predecessors have been delivered — not
// after the whole batch. An Emit error aborts the stream.
type Sink[T any] interface {
	Emit(i int, v T) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc[T any] func(i int, v T) error

// Emit implements Sink.
func (f SinkFunc[T]) Emit(i int, v T) error { return f(i, v) }

// StreamShardCached is StreamShard with a read-through cache wrapped
// around the job function: before job i runs, lookup(i) is consulted —
// a hit serves the cached value and skips run(i) entirely; a miss runs
// the job and, once the result is emitted into the ordered stream,
// save(i, v) records it. Either hook may be nil (no lookup / no
// recording). The contract:
//
//   - lookup runs on the worker goroutines (concurrently, like run), so
//     it must be safe for concurrent use; save runs on the streaming
//     goroutine only, in ascending emit order, just before sink.Emit —
//     a crash leaves the cache holding exactly the emitted prefix.
//   - save is called only for values run produced, never for cache hits
//     (re-recording a hit would be a wasted write at best).
//   - a lookup or save error aborts the stream like a job failure: a
//     corrupt cache entry must surface as an error, not as a silently
//     recomputed — or worse, wrong — value.
//
// The delivery order and byte-for-byte output of a fully-cached, partly
// cached and uncached stream are identical, which is what lets a
// results store serve repeated sweeps without breaking the merged-file
// byte-identity contract.
func StreamShardCached[T any](ctx context.Context, shard Shard, workers, n int,
	lookup func(i int) (T, bool, error), run func(i int) (T, error),
	save func(i int, v T) error, sink Sink[T]) error {
	if lookup == nil && save == nil {
		return StreamShard(ctx, shard, workers, n, run, sink)
	}
	if n <= 0 {
		return nil
	}
	// fresh[i] marks results produced by run (vs served by lookup). A
	// worker writes its own index before the result enters the delivery
	// channel and the streaming goroutine reads it after, so the channel
	// orders the accesses.
	fresh := make([]bool, n)
	fn := run
	if lookup != nil {
		fn = func(i int) (T, error) {
			v, ok, err := lookup(i)
			if err != nil {
				var zero T
				return zero, err
			}
			if ok {
				return v, nil
			}
			v, err = run(i)
			if err == nil {
				fresh[i] = true
			}
			return v, err
		}
	} else {
		fn = func(i int) (T, error) {
			v, err := run(i)
			if err == nil {
				fresh[i] = true
			}
			return v, err
		}
	}
	out := sink
	if save != nil {
		out = SinkFunc[T](func(i int, v T) error {
			if fresh[i] {
				if err := save(i, v); err != nil {
					return err
				}
			}
			return sink.Emit(i, v)
		})
	}
	return StreamShard(ctx, shard, workers, n, fn, out)
}

// StreamShard runs this shard's subset of the jobs fn(0..n-1) across at
// most workers goroutines and streams the results to sink in job order:
//
//   - sink.Emit(i, v) is called in ascending i, only for indices the
//     shard owns, as soon as all owned predecessors have been emitted —
//     a slow job blocks delivery (not execution) of later jobs, so the
//     emitted prefix at any moment is exactly what a serial run would
//     have produced so far.
//   - on failure the error of the lowest-indexed failing owned job is
//     returned and no result at or beyond that index is emitted; the
//     serial path additionally stops launching jobs at the failure, and
//     the parallel path skips jobs beyond the lowest known failure.
//   - a sink error aborts the stream and is returned as-is.
//
// Cancelling ctx is a graceful drain, not an abort: no new jobs launch,
// jobs already executing run to completion, and every completed result
// whose predecessors completed is still emitted (and therefore reaches
// any save hook / store sink) before ctx.Err() is returned. A stream cut
// short by cancellation thus leaves behind exactly the prefix-consistent
// output a shorter batch would have produced — the property that lets a
// killed sweep resume warm. A nil ctx means "never cancelled".
func StreamShard[T any](ctx context.Context, shard Shard, workers, n int, fn func(i int) (T, error), sink Sink[T]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := shard.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	// owned is the number of jobs this shard runs; job j of the shard has
	// global index shard.Index + j*shard.Count.
	owned := n
	index := func(j int) int { return j }
	if !shard.All() {
		owned = (n - shard.Index + shard.Count - 1) / shard.Count
		index = func(j int) int { return shard.Index + j*shard.Count }
	}
	if owned <= 0 {
		return nil
	}
	if workers > owned {
		workers = owned
	}
	if workers <= 1 {
		for j := 0; j < owned; j++ {
			// Check between jobs, never mid-job: a cancelled serial
			// stream still finishes (and emits) the job it was running.
			if err := ctx.Err(); err != nil {
				return err
			}
			i := index(j)
			v, err := fn(i)
			if err != nil {
				return err
			}
			if err := sink.Emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type slot struct {
		j   int
		v   T
		err error
	}
	done := make(chan slot, workers)
	var next atomic.Int64
	// failed tracks the lowest failing shard-local job seen so far; jobs
	// beyond it are skipped.
	var failed atomic.Int64
	failed.Store(int64(owned))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				// A cancelled context stops workers from picking up new
				// jobs; in-flight fn calls below drain to completion.
				if j >= owned || int64(j) > failed.Load() || ctx.Err() != nil {
					return
				}
				v, err := fn(index(j))
				if err != nil {
					for {
						f := failed.Load()
						if int64(j) >= f || failed.CompareAndSwap(f, int64(j)) {
							break
						}
					}
				}
				done <- slot{j: j, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Fold completions back into shard-local order, emitting the
	// contiguous prefix as it forms. pending buffers out-of-order
	// arrivals; firstErr remembers the lowest-indexed failure.
	pending := make(map[int]slot)
	emit := 0
	var firstErr error
	errAt := owned
	var sinkErr error
	for s := range done {
		if s.err != nil {
			if s.j < errAt {
				errAt = s.j
				firstErr = s.err
			}
			continue
		}
		if sinkErr != nil {
			continue // drain remaining completions
		}
		pending[s.j] = s
		for {
			p, ok := pending[emit]
			if !ok || emit >= errAt {
				break
			}
			delete(pending, emit)
			if err := sink.Emit(index(emit), p.v); err != nil {
				sinkErr = err
				// Results beyond the failed emission are useless; mark
				// the failure so workers stop picking up new jobs
				// (mirroring a job failure) instead of finishing the
				// batch for nothing.
				for {
					f := failed.Load()
					if int64(emit) >= f || failed.CompareAndSwap(f, int64(emit)) {
						break
					}
				}
				break
			}
			emit++
		}
	}
	// A sink failure happened strictly below errAt (emission never reaches
	// the failure index), so it is the lower-indexed abort and wins.
	if sinkErr != nil {
		return sinkErr
	}
	if firstErr != nil {
		return firstErr
	}
	// All completed results were emitted; if the stream stopped short of
	// the full batch it was the context, and the caller must see that a
	// prefix — not the whole sweep — was delivered.
	if err := ctx.Err(); err != nil && emit < owned {
		return err
	}
	return nil
}
