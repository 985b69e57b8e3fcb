package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// Queue defaults.
const (
	// DefaultLeaseTTL is how long a worker may hold a lease without
	// renewing before its jobs requeue.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultMaxBatch caps the jobs per lease.
	DefaultMaxBatch = 16
)

// QueueOptions configure a Queue. The zero value selects the defaults.
type QueueOptions struct {
	// LeaseTTL bounds how long a granted lease survives without renewal
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxBatch caps the jobs handed out per lease (0 = DefaultMaxBatch).
	MaxBatch int
	// Retry bounds the retries of a transient store error while a row is
	// recorded (the zero value disables retrying).
	Retry store.RetryPolicy
	// Now overrides the clock (tests); nil = time.Now.
	Now func() time.Time
}

// Counters are the queue's monotonic totals, exported as Prometheus
// counters by the serving layer.
type Counters struct {
	// Leased counts job grants (a requeued job leased again counts
	// again); Ingested counts rows accepted and recorded; Requeued counts
	// jobs returned to the queue by expired or released leases; Rejected
	// counts rows refused by the ingest integrity gate; Duplicate counts
	// rows delivered for hashes already recorded.
	Leased    int64
	Ingested  int64
	Requeued  int64
	Rejected  int64
	Duplicate int64
}

// PlanCounters are one plan's share of the queue's work, summed over
// every run of the plan hash: grants, rows and requeues of the jobs it
// waited on; the rows of jobs it enqueued first (Simulated, and the
// store retries recording them) and of jobs another plan enqueued first
// (Hits). A row counts as simulated once, for one plan.
type PlanCounters struct {
	Leased, Ingested, Requeued int64
	Simulated, Hits, Retried   int64
}

// Gauges are the queue's instantaneous state.
type Gauges struct {
	// Pending is jobs waiting for a worker, Leased jobs a worker holds
	// (under a lease or in-process), Leases active leases, Workers the
	// workers seen recently (within five lease TTLs).
	Pending int
	Leased  int
	Leases  int
	Workers int
}

// Queue is the work-distribution core: plans enqueue their missing job
// specs, workers take them — remote ones in leased batches, in-process
// ones one at a time with Take — and each recorded row is handed to
// every plan waiting on it. Expired or released leases requeue
// automatically. One Queue guards one store; all methods are safe for
// concurrent use.
type Queue struct {
	st       store.Store
	ttl      time.Duration
	maxBatch int
	retry    store.RetryPolicy
	now      func() time.Time

	mu      sync.Mutex
	pending []string            // FIFO of job hashes awaiting a worker
	ready   chan struct{}       // closed and replaced when pending grows
	jobs    map[string]*distJob // every unfinished job, pending or out
	leases  map[string]*lease
	workers map[string]time.Time // worker name -> last seen
	plans   map[string]*planTrack
	seq     int // lease IDs
	// recent keeps the rows recorded while some run is open (between
	// Open and Enqueue), so Enqueue can hand over a row recorded after
	// its plan's store diff missed it; opened counts the open runs.
	recent map[string]*distJob
	opened int
	c      Counters
}

// inProcess marks a job an in-process worker took: it holds no lease,
// so it never expires and is never requeued.
const inProcess = "in-process"

// distJob is one job: its spec, who holds it (if anyone), the plan that
// enqueued it first and the plans waiting on its row. A recorded job
// kept in Queue.recent carries its row.
type distJob struct {
	spec    JobSpec
	leaseID string // "" = pending
	owner   *planTrack
	waiters []*planTrack
	row     scenario.Result
}

type lease struct {
	id       string
	worker   string
	deadline time.Time
	jobs     map[string]struct{}
}

// planTrack is one plan hash's share of the queue: its counters over all
// runs, and its latest run — the rows it still waits on and the rows
// handed to it.
type planTrack struct {
	c         PlanCounters
	remaining int  // jobs still without a row
	open      bool // between Open and Enqueue
	ended     bool // done is closed; err says why
	done      chan struct{}
	err       error
	rows      map[string]scenario.Result
}

// NewQueue returns an empty work queue recording rows into st.
func NewQueue(st store.Store, opts QueueOptions) *Queue {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	q := &Queue{
		st:       st,
		ttl:      opts.LeaseTTL,
		maxBatch: opts.MaxBatch,
		retry:    opts.Retry,
		now:      opts.Now,
		jobs:     map[string]*distJob{},
		leases:   map[string]*lease{},
		workers:  map[string]time.Time{},
		plans:    map[string]*planTrack{},
	}
	q.ready = make(chan struct{})
	return q
}

// LeaseTTL reports the configured lease deadline extension.
func (q *Queue) LeaseTTL() time.Duration { return q.ttl }

// MaxBatch reports the configured per-lease job cap.
func (q *Queue) MaxBatch() int { return q.maxBatch }

// Register records a worker sighting. Lease and Ingest register
// implicitly too, so a coordinator restart does not orphan workers that
// registered with its previous life.
func (q *Queue) Register(worker string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.workers[worker] = q.now()
}

// Open starts a plan's run before its store diff. A job the diff misses
// may be recorded for another plan before this one enqueues it; until
// Enqueue, the queue keeps such rows and Enqueue hands them over, so no
// job simulates twice. Every Open must be followed by an Enqueue.
func (q *Queue) Open(planHash string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.startLocked(planHash)
	t.open = true
	q.opened++
	if q.recent == nil {
		q.recent = map[string]*distJob{}
	}
}

// Enqueue adds a plan's missing jobs to the queue, starting the plan's
// run unless Open did. Jobs whose hash is already queued (an overlapping
// plan) are not duplicated — the plan simply waits on the same row. A
// plan with nothing missing completes immediately. Re-enqueueing a plan
// hash replaces its run.
func (q *Queue) Enqueue(planHash string, specs []JobSpec) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.plans[planHash]
	if t != nil && t.open {
		t.open = false
		q.opened--
	} else {
		t = q.startLocked(planHash)
	}
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if seen[sp.Hash] {
			continue // a plan listing the same job twice waits on one row
		}
		seen[sp.Hash] = true
		j := q.jobs[sp.Hash]
		if j == nil {
			if rec := q.recent[sp.Hash]; rec != nil {
				t.deliver(sp.Hash, rec.row)
				if rec.owner != t {
					t.c.Hits++
				}
				continue
			}
			j = &distJob{spec: sp, owner: t}
			q.jobs[sp.Hash] = j
			q.pending = append(q.pending, sp.Hash)
		}
		j.waiters = append(j.waiters, t)
		t.remaining++
	}
	if q.opened == 0 {
		q.recent = nil
	}
	if t.remaining == 0 {
		t.end(nil)
	} else {
		q.wakeLocked()
	}
}

// startLocked begins a new run of a plan hash. A previous run still
// waiting on jobs is withdrawn from them first. Callers hold q.mu.
func (q *Queue) startLocked(planHash string) *planTrack {
	t := q.plans[planHash]
	if t == nil {
		t = &planTrack{}
		q.plans[planHash] = t
	}
	if t.remaining > 0 {
		q.withdrawLocked(t)
	}
	t.ended, t.err, t.rows = false, nil, nil
	t.done = make(chan struct{})
	return t
}

// Wait blocks until every job the plan's latest run enqueued has a row,
// a job it waits on fails (that job's error comes back), or ctx is
// cancelled.
func (q *Queue) Wait(ctx context.Context, planHash string) error {
	_, err := q.Collect(ctx, planHash)
	return err
}

// Collect is Wait handing over the rows the run received, keyed by job
// hash — on an error, the rows received so far.
func (q *Queue) Collect(ctx context.Context, planHash string) (map[string]scenario.Result, error) {
	q.mu.Lock()
	t, ok := q.plans[planHash]
	var done chan struct{}
	if ok {
		done = t.done
	}
	q.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: plan %s was never enqueued", planHash)
	}
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err == nil {
		err = t.err
	}
	rows := t.rows
	t.rows = nil
	return rows, err
}

// Lease grants a worker up to max pending jobs (0 or above the
// configured cap = the cap) under a fresh deadline. An empty queue
// returns an ID-less lease: poll again. Expired leases are collected
// first, so a lease call after a worker crash sees its jobs requeued.
func (q *Queue) Lease(worker string, max int) *Lease {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	q.workers[worker] = q.now()
	if max <= 0 || max > q.maxBatch {
		max = q.maxBatch
	}
	out := &Lease{Worker: worker, TTL: q.ttl}
	for len(out.Jobs) < max {
		j := q.popLocked()
		if j == nil {
			break
		}
		if out.ID == "" {
			q.seq++
			out.ID = fmt.Sprintf("lease-%06d", q.seq)
			out.Deadline = q.now().Add(q.ttl)
			q.leases[out.ID] = &lease{id: out.ID, worker: worker, deadline: out.Deadline, jobs: map[string]struct{}{}}
		}
		q.grantLocked(j, out.ID)
		q.leases[out.ID].jobs[j.spec.Hash] = struct{}{}
		out.Jobs = append(out.Jobs, j.spec)
	}
	return out
}

// Take hands the oldest pending job to an in-process worker, blocking
// until one is enqueued or ctx is cancelled (then ok is false). The job
// holds no lease, so it never expires or requeues; hand it back with
// Finish.
func (q *Queue) Take(ctx context.Context) (spec JobSpec, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for ctx.Err() == nil {
		if j := q.popLocked(); j != nil {
			q.grantLocked(j, inProcess)
			return j.spec, true
		}
		ready := q.ready
		q.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
		}
		q.mu.Lock()
	}
	return JobSpec{}, false
}

// Finish hands back a job Take gave out: its row, or the error it
// failed to simulate with.
func (q *Queue) Finish(jobHash string, r scenario.Result, err error) {
	if err != nil {
		q.fail(jobHash, inProcess, err)
	} else {
		q.Record(jobHash, r)
	}
}

// fail fails the job hashed if holder holds it: see failLocked.
func (q *Queue) fail(jobHash, holder string, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j := q.jobs[jobHash]; j != nil && j.leaseID == holder {
		q.failLocked(j, err)
	}
}

// wakeLocked wakes the in-process workers waiting in Take. Callers hold
// q.mu.
func (q *Queue) wakeLocked() {
	close(q.ready)
	q.ready = make(chan struct{})
}

// popLocked removes and returns the oldest pending job, skipping FIFO
// entries of jobs finished or taken meanwhile. Callers hold q.mu.
func (q *Queue) popLocked() *distJob {
	for len(q.pending) > 0 {
		h := q.pending[0]
		q.pending = q.pending[1:]
		if j := q.jobs[h]; j != nil && j.leaseID == "" {
			return j
		}
	}
	return nil
}

// grantLocked hands a pending job to a worker. Callers hold q.mu.
func (q *Queue) grantLocked(j *distJob, holder string) {
	j.leaseID = holder
	q.c.Leased++
	for _, t := range j.waiters {
		t.c.Leased++
	}
}

// Renew extends a lease's deadline, reporting the new deadline and
// whether the lease still exists (false after expiry: the worker should
// abandon the batch — its jobs are already requeued, and any rows it
// ships anyway are absorbed as duplicates or late ingests).
func (q *Queue) Renew(leaseID string) (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.leases[leaseID]
	if l == nil {
		return time.Time{}, false
	}
	l.deadline = q.now().Add(q.ttl)
	return l.deadline, true
}

// Release abandons a lease: its un-ingested jobs requeue immediately.
// This is what a draining worker calls so its unfinished share does not
// wait out the deadline. Releasing an unknown lease is a no-op.
func (q *Queue) Release(leaseID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.leases[leaseID]
	if l == nil {
		return
	}
	delete(q.leases, leaseID)
	q.requeueLocked(l)
}

// Ingest processes one delivery: verify and record rows, then apply the
// lease maintenance the request asks for — renew, release, or release
// with a failed job, which fails every plan waiting on that job.
func (q *Queue) Ingest(req IngestRequest) IngestResponse {
	var resp IngestResponse
	if req.Worker != "" {
		q.Register(req.Worker)
	}
	for _, row := range req.Rows {
		switch status, err := q.ingestRow(row); status {
		case rowIngested:
			resp.Ingested++
		case rowDuplicate:
			resp.Duplicate++
		default:
			resp.Rejected++
			if err != nil && len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
		}
	}
	if req.Release {
		if req.Failed != "" && req.Lease != "" {
			q.fail(req.Failed, req.Lease, errors.New(req.Error))
		}
		q.Release(req.Lease)
		resp.Done = true
		return resp
	}
	if req.Renew && req.Lease != "" {
		if dl, ok := q.Renew(req.Lease); ok {
			resp.Deadline = dl
		}
	}
	q.mu.Lock()
	l := q.leases[req.Lease]
	resp.Done = l == nil || len(l.jobs) == 0
	if l != nil && len(l.jobs) == 0 {
		// Every job the lease carried has been ingested (or rejected and
		// requeued elsewhere); keeping the empty record would only let
		// the Leases gauge count dead leases until the TTL sweep.
		delete(q.leases, req.Lease)
	}
	q.mu.Unlock()
	return resp
}

type rowStatus int

const (
	rowIngested rowStatus = iota
	rowDuplicate
	rowRejected
)

// ingestRow is the integrity gate and the recording step for one row.
// A row that fails verification is rejected and — when the queue still
// tracks its job — the job requeues for another worker; a row for a job
// nobody is waiting on is a duplicate if the store already holds it and
// an unsolicited reject otherwise.
func (q *Queue) ingestRow(row ResultRow) (status rowStatus, err error) {
	defer func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		switch status {
		case rowDuplicate:
			q.c.Duplicate++
		case rowRejected:
			q.c.Rejected++
		}
	}()
	r, err := DecodeRow(row)
	q.mu.Lock()
	j := q.jobs[row.Hash]
	if err != nil && j != nil && j.leaseID != "" && j.leaseID != inProcess {
		q.requeueJobLocked(j)
	}
	q.mu.Unlock()
	switch {
	case err != nil:
		return rowRejected, err
	case j == nil:
		if _, ok, gerr := q.st.Get(row.Hash); gerr == nil && ok {
			return rowDuplicate, nil
		}
		// Nobody asked for this hash and the store has no row for it:
		// refuse rather than let an arbitrary writer grow the store
		// through the work endpoint (the push endpoint is for that).
		return rowRejected, fmt.Errorf("dist: %s: row was never leased", row.Hash)
	}
	if err := q.Record(row.Hash, r); err != nil {
		return rowRejected, err
	}
	return rowIngested, nil
}

// Record puts a row into the store, retrying transient errors, and hands
// it to every plan waiting on its job — a worker's row, or one pushed
// into the store. A row that cannot be recorded fails those plans
// instead: the job leaves the queue and is not requeued.
func (q *Queue) Record(jobHash string, r scenario.Result) error {
	retried, err := q.retry.Do(context.Background(), jobHash, func() error {
		return q.st.Put(jobHash, r)
	})
	if err != nil {
		err = fmt.Errorf("dist: record %s: %w", jobHash, err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[jobHash]
	if j == nil {
		return err // finished by another delivery meanwhile
	}
	j.owner.c.Retried += retried
	if err != nil {
		q.failLocked(j, err)
		return err
	}
	q.absorbLocked(j, r)
	return nil
}

// absorbLocked removes a job whose row is recorded from the queue and
// its lease, and hands the row to every plan waiting on it. Callers hold
// q.mu.
func (q *Queue) absorbLocked(j *distJob, r scenario.Result) {
	q.dropLocked(j)
	q.c.Ingested++
	if q.opened > 0 {
		j.row = r
		q.recent[j.spec.Hash] = j
	}
	j.owner.c.Simulated++
	for _, t := range j.waiters {
		t.c.Ingested++
		if t != j.owner {
			t.c.Hits++
		}
		t.deliver(j.spec.Hash, r)
		if t.remaining--; t.remaining == 0 {
			t.end(nil)
		}
	}
}

// failLocked removes a failed job from the queue and fails every plan
// waiting on it with err; those plans stop waiting on other jobs too.
// Callers hold q.mu.
func (q *Queue) failLocked(j *distJob, err error) {
	q.dropLocked(j)
	for _, t := range j.waiters {
		t.end(err)
		q.withdrawLocked(t)
	}
}

// withdrawLocked stops a run from waiting on any job; a pending job no
// plan waits on any more leaves the queue. Callers hold q.mu.
func (q *Queue) withdrawLocked(t *planTrack) {
	for h, j := range q.jobs {
		kept := j.waiters[:0]
		for _, w := range j.waiters {
			if w != t {
				kept = append(kept, w)
			}
		}
		j.waiters = kept
		switch {
		case len(kept) == 0 && j.leaseID == "":
			delete(q.jobs, h) // its FIFO entry goes stale
		case len(kept) > 0 && j.owner == t:
			j.owner = kept[0]
		}
	}
	t.remaining = 0
}

// dropLocked removes a job from the queue and from its lease. A pending
// job leaves a stale FIFO entry, which popLocked skips. Callers hold
// q.mu.
func (q *Queue) dropLocked(j *distJob) {
	delete(q.jobs, j.spec.Hash)
	if l := q.leases[j.leaseID]; l != nil {
		delete(l.jobs, j.spec.Hash)
	}
}

// requeueLocked returns every job a dead lease still held to the pending
// queue. Callers hold q.mu and have removed the lease from q.leases.
func (q *Queue) requeueLocked(l *lease) {
	for h := range l.jobs {
		if j := q.jobs[h]; j != nil && j.leaseID == l.id {
			q.requeueJobLocked(j)
		}
	}
}

// requeueJobLocked returns one leased job to the pending queue, out of
// its lease (which keeps its other jobs). Callers hold q.mu.
func (q *Queue) requeueJobLocked(j *distJob) {
	if l := q.leases[j.leaseID]; l != nil {
		delete(l.jobs, j.spec.Hash)
	}
	j.leaseID = ""
	q.pending = append(q.pending, j.spec.Hash)
	q.c.Requeued++
	for _, t := range j.waiters {
		t.c.Requeued++
	}
	q.wakeLocked()
}

// expireLocked collects every lease whose deadline has passed. Callers
// hold q.mu.
func (q *Queue) expireLocked() {
	now := q.now()
	for id, l := range q.leases {
		if l.deadline.After(now) {
			continue
		}
		delete(q.leases, id)
		q.requeueLocked(l)
	}
}

// Janitor expires stale leases in the background until ctx is cancelled,
// so requeue does not wait for the next Lease call (a single surviving
// worker mid-batch never calls Lease). Run it as a goroutine.
func (q *Queue) Janitor(ctx context.Context) {
	period := q.ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			q.mu.Lock()
			q.expireLocked()
			q.mu.Unlock()
		}
	}
}

// Counters snapshots the monotonic totals.
func (q *Queue) Counters() Counters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.c
}

// PlanCounters snapshots one plan's counters (zero for a plan the queue
// never saw).
func (q *Queue) PlanCounters(planHash string) PlanCounters {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t := q.plans[planHash]; t != nil {
		return t.c
	}
	return PlanCounters{}
}

// Gauges snapshots the instantaneous queue state.
func (q *Queue) Gauges() Gauges {
	q.mu.Lock()
	defer q.mu.Unlock()
	g := Gauges{Leases: len(q.leases)}
	for _, j := range q.jobs {
		if j.leaseID == "" {
			g.Pending++
		} else {
			g.Leased++
		}
	}
	cutoff := q.now().Add(-5 * q.ttl)
	for _, seen := range q.workers {
		if seen.After(cutoff) {
			g.Workers++
		}
	}
	return g
}

// deliver hands a row to the run.
func (t *planTrack) deliver(jobHash string, r scenario.Result) {
	if t.rows == nil {
		t.rows = map[string]scenario.Result{}
	}
	t.rows[jobHash] = r
}

// end finishes the run once: err nil is complete, else failed.
func (t *planTrack) end(err error) {
	if t.ended {
		return
	}
	t.ended, t.err = true, err
	close(t.done)
}
