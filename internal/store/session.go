package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"rrbus/internal/exp"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
)

// Session is the Run stage of the Plan→Run→Store→Render pipeline: it
// executes a compiled plan's jobs on the experiment engine's streaming
// worker pool, serving any job whose content hash already has a recorded
// row from the Store instead of simulating it. Results are delivered to
// the sink in job-index order either way, so a store-served stream is
// byte-identical to a freshly simulated one — repeated sweeps, and new
// plans that overlap old ones, simulate only the delta.
//
// Sessions are resilient by construction:
//
//   - Cancellation (RunContext and friends) is a graceful drain: no new
//     jobs launch, in-flight jobs finish, and every completed row in the
//     contiguous prefix is emitted — and recorded in the store — before
//     ctx.Err() comes back. A killed sweep resumes warm.
//   - Corruption heals: if the store also implements Quarantiner, a
//     CorruptError from Get moves the damaged entry aside and the job
//     re-simulates as a plain miss; the fresh row is recorded in its
//     place. Quarantined/Repaired count the healing work.
//   - Transient store I/O errors retry with bounded exponential backoff
//     per Retry; a zero policy disables retries.
//
// The zero value is a valid session: no store (every job simulates),
// GOMAXPROCS workers, unsharded, no retries, the default engine.
type Session struct {
	// Store serves recorded rows and receives fresh ones; nil disables
	// reuse. If the store also implements PlanRecorder, every plan the
	// session runs is recorded in it. If it implements Quarantiner,
	// corrupt entries are quarantined and re-simulated instead of
	// failing the run.
	Store Store
	// Workers bounds the simulation goroutines (0 = GOMAXPROCS). Output
	// is identical for any value.
	Workers int
	// Shard selects this machine's share of the jobs (the zero Shard
	// runs them all).
	Shard exp.Shard
	// Retry bounds retries of transient store errors: every Get and Put
	// of a run, and the plan manifest it records. The zero value disables
	// retrying.
	Retry RetryPolicy
	// Engine selects the simulator engine the session's jobs run on (the
	// zero value is sim.Steady). Rows are identical in every engine and
	// never record it, so rows stored under one engine serve the others.
	Engine sim.Engine

	simulated   atomic.Int64
	hits        atomic.Int64
	quarantined atomic.Int64
	repaired    atomic.Int64
	retried     atomic.Int64
}

// JobError is a job of the plan (at Index) that failed to simulate, as
// opposed to a store failure. It reads as the simulation error.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return e.Err.Error() }

func (e *JobError) Unwrap() error { return e.Err }

// RetryPolicy bounds the retries a Session applies to transient store
// errors (IsTransient). Non-transient errors are never retried.
type RetryPolicy struct {
	// Max is the number of retries after the initial attempt; 0 disables
	// retrying.
	Max int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Jitter of ±25% is applied, derived
	// deterministically from the job hash so runs stay reproducible.
	// Zero with Max > 0 defaults to 10ms.
	BaseDelay time.Duration
}

// delay returns the backoff before retry attempt (1-based), with
// deterministic ±25% jitter keyed on what identifies the operation.
func (p RetryPolicy) delay(key string, attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	d := base << (attempt - 1)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	// Map the hash to [-25%, +25%) of d.
	jitter := int64(h.Sum64()%1000)*int64(d)/2000 - int64(d)/4
	return d + time.Duration(jitter)
}

// Do runs op, retrying transient failures per the policy, and returns
// op's last error with the number of retries made. key identifies the
// operation (a job hash) and seeds the jitter. The backoff sleep
// respects ctx; any non-transient error (including ctx.Err() surfaced by
// op) returns immediately.
func (p RetryPolicy) Do(ctx context.Context, key string, op func() error) (retries int64, err error) {
	err = op()
	for attempt := 1; attempt <= p.Max && IsTransient(err); attempt++ {
		t := time.NewTimer(p.delay(key, attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return retries, err
		case <-t.C:
		}
		retries++
		err = op()
	}
	return retries, err
}

// retry runs op under the session's policy and counts its retries.
func (s *Session) retry(ctx context.Context, key string, op func() error) error {
	n, err := s.Retry.Do(ctx, key, op)
	if n > 0 {
		s.retried.Add(n)
	}
	return err
}

// Run streams the session's share of the plan's jobs to sink in job
// order. Jobs found in the store are served without simulating; fresh
// results are recorded into the store as they are emitted. Run is
// RunContext with a background context.
func (s *Session) Run(c *scenario.Compiled, sink exp.Sink[scenario.Result]) error {
	return s.RunContext(context.Background(), c, sink)
}

// RunContext is Run with cancellation: cancelling ctx drains the run —
// in-flight jobs finish, their contiguous prefix is emitted and recorded
// in the store — and then returns ctx.Err(). A nil ctx is Background.
func (s *Session) RunContext(ctx context.Context, c *scenario.Compiled, sink exp.Sink[scenario.Result]) error {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var lookup func(i int) (scenario.Result, bool, error)
	var save func(i int, r scenario.Result) error
	if s.Store != nil {
		if pr, ok := s.Store.(PlanRecorder); ok {
			if err := s.retry(ctx, c.Hash(), func() error { return pr.PutPlan(c) }); err != nil {
				return err
			}
		}
		hashes := c.JobHashes()
		q, canHeal := s.Store.(Quarantiner)
		// healed[i] is written by the worker that looked job i up and
		// read by the streaming goroutine that saves it; the result
		// channel between them orders the accesses.
		healed := make([]bool, len(c.Jobs))
		lookup = func(i int) (scenario.Result, bool, error) {
			var r scenario.Result
			var ok bool
			err := s.retry(ctx, hashes[i], func() (err error) {
				r, ok, err = s.Store.Get(hashes[i])
				return err
			})
			if err != nil && canHeal && IsCorrupt(err) {
				// The entry is damaged but the row is reproducible:
				// set the entry aside and re-simulate the job.
				if qerr := q.Quarantine(hashes[i], err.Error()); qerr != nil {
					return r, false, fmt.Errorf("job %q (hash %s): quarantine: %w", c.Jobs[i].ID, hashes[i], qerr)
				}
				s.quarantined.Add(1)
				healed[i] = true
				return r, false, nil
			}
			if err != nil {
				return r, false, fmt.Errorf("job %q (hash %s): %w", c.Jobs[i].ID, hashes[i], err)
			}
			if ok {
				// Stored rows are content-addressed and carry no ID;
				// relabel with this plan's job ID so a served row is
				// indistinguishable from a fresh one.
				r.ID = c.Jobs[i].ID
				s.hits.Add(1)
			}
			return r, ok, nil
		}
		save = func(i int, r scenario.Result) error {
			err := s.retry(ctx, hashes[i], func() error {
				return s.Store.Put(hashes[i], r)
			})
			if err != nil {
				return fmt.Errorf("job %q (hash %s): %w", c.Jobs[i].ID, hashes[i], err)
			}
			if healed[i] {
				s.repaired.Add(1)
			}
			return nil
		}
	}
	run := func(i int) (scenario.Result, error) {
		s.simulated.Add(1)
		r, err := c.Jobs[i].Run(s.Engine)
		if err != nil {
			return r, &JobError{Index: i, Err: err}
		}
		return r, nil
	}
	return exp.StreamShardCached(ctx, s.Shard, workers, len(c.Jobs), lookup, run, save, sink)
}

// RunAll runs the full plan and collects the results in job order. It
// refuses a sharded session: a collected shard is missing rows by
// construction, and every renderer needs the complete series — stream
// shards to a file with RunToFile and merge instead.
func (s *Session) RunAll(c *scenario.Compiled) ([]scenario.Result, error) {
	return s.RunAllContext(context.Background(), c)
}

// RunAllContext is RunAll with cancellation. On cancellation the rows
// completed before the drain are returned alongside ctx.Err().
func (s *Session) RunAllContext(ctx context.Context, c *scenario.Compiled) ([]scenario.Result, error) {
	if !s.Shard.All() {
		return nil, fmt.Errorf("store: RunAll on shard %s would collect a partial series; use RunToFile and merge", s.Shard)
	}
	out := make([]scenario.Result, 0, len(c.Jobs))
	err := s.RunContext(ctx, c, exp.SinkFunc[scenario.Result](func(_ int, r scenario.Result) error {
		out = append(out, r)
		return nil
	}))
	if err != nil {
		return out, err
	}
	return out, nil
}

// RunToFile streams the session's share of the plan's jobs as JSONL rows
// to path ("-" = stdout) — the sharded-output path of the CLIs, now
// store-aware.
func (s *Session) RunToFile(c *scenario.Compiled, path string) error {
	return s.RunToFileContext(context.Background(), c, path)
}

// RunToFileContext is RunToFile with cancellation. The sink is flushed
// even when the run fails or is cancelled, so every row the drain
// delivered reaches the file — a killed sweep leaves a valid partial
// JSONL prefix behind.
func (s *Session) RunToFileContext(ctx context.Context, c *scenario.Compiled, path string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	sink := exp.NewJSONLSink[scenario.Result](w)
	err := s.RunContext(ctx, c, sink)
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	return err
}

// Simulated reports how many jobs this session actually simulated,
// accumulated across Run calls. A warm re-run of a fully recorded plan
// reports 0 — the property the CI cache-reuse smoke asserts.
func (s *Session) Simulated() int64 { return s.simulated.Load() }

// StoreHits reports how many jobs were served from the store.
func (s *Session) StoreHits() int64 { return s.hits.Load() }

// Quarantined reports how many corrupt store entries this session moved
// to quarantine (each was then re-simulated).
func (s *Session) Quarantined() int64 { return s.quarantined.Load() }

// Repaired reports how many quarantined entries were re-recorded with a
// freshly simulated row — the store positions this session healed.
func (s *Session) Repaired() int64 { return s.repaired.Load() }

// Retried reports how many store operations were retried after a
// transient failure.
func (s *Session) Retried() int64 { return s.retried.Load() }
