package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"rrbus/internal/exp"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// WorkerOptions configure a Worker. The zero value is usable: a
// generated name, an in-memory local store, engine-default simulation
// workers, 500ms poll interval, no retries.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator ("" = host-pid).
	Name string
	// Store is the worker's local store (nil = a fresh Mem). A Dir store
	// doubles as a warm local cache: a requeued job another worker
	// already simulated here ships instantly without re-simulating.
	Store store.Store
	// Workers bounds the local session's simulation goroutines
	// (0 = the engine default).
	Workers int
	// MaxBatch caps the jobs requested per lease (0 = whatever the
	// coordinator allows).
	MaxBatch int
	// Poll is how long to sleep when the queue is empty or the
	// coordinator is unreachable (0 = 500ms).
	Poll time.Duration
	// Retry is the local session's retry policy for transient store
	// errors.
	Retry store.RetryPolicy
	// Client issues the HTTP requests (nil = a 60s-timeout client).
	Client *http.Client
	// Log receives progress lines (nil = discard).
	Log io.Writer
}

// WorkerSummary is what a drained worker reports: protocol totals plus
// the local session's counters.
type WorkerSummary struct {
	Leases      int64 // leases run to completion
	Shipped     int64 // rows delivered (ingested + duplicate)
	Released    int64 // leases released early (drain, failure)
	Simulated   int64 // jobs actually simulated locally
	StoreHits   int64 // jobs served from the local store
	Quarantined int64
	Repaired    int64
	Retried     int64
}

// Worker runs leased batches from a coordinator through a local
// store.Session and streams the rows back. Create with NewWorker, run
// with Run; cancelling the context drains gracefully (in-flight jobs
// finish, completed rows ship, the unfinished remainder is released for
// immediate requeue).
type Worker struct {
	base   string
	opts   WorkerOptions
	sess   *store.Session
	client *http.Client

	ttl time.Duration // lease TTL learned at registration

	leases   atomic.Int64
	shipped  atomic.Int64
	released atomic.Int64
}

// NewWorker returns a worker for the coordinator at base (the rrbus-serve
// URL, e.g. "http://host:8077").
func NewWorker(base string, opts WorkerOptions) *Worker {
	if opts.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Store == nil {
		opts.Store = store.NewMem()
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &Worker{
		base:   strings.TrimRight(base, "/"),
		opts:   opts,
		sess:   &store.Session{Store: opts.Store, Workers: opts.Workers, Retry: opts.Retry},
		client: client,
		ttl:    DefaultLeaseTTL,
	}
}

// Name reports the worker's registered name.
func (w *Worker) Name() string { return w.opts.Name }

// Run registers with the coordinator and processes leases until ctx is
// cancelled, returning ctx.Err() on a clean drain. Transient coordinator
// failures (unreachable, draining) are logged and retried after the poll
// interval — a worker outlives coordinator restarts.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.register(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			return ctx.Err()
		} else {
			w.logf("register: %v (retrying)", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
		}
	}
	w.logf("registered with %s (lease ttl %s)", w.base, w.ttl)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		l, err := w.lease()
		if err != nil {
			w.logf("lease: %v", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		if l.ID == "" || len(l.Jobs) == 0 {
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		if err := w.runLease(ctx, l); err != nil && ctx.Err() == nil {
			w.logf("lease %s: %v", l.ID, err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
		}
	}
}

// runLease compiles the leased jobs as a plan, verifies the content
// hashes agree with what the coordinator leased, runs it through the
// local session and ships rows as they stream. Cancellation drains: the
// session's completed prefix ships, then the lease is released so the
// remainder requeues immediately.
func (w *Worker) runLease(ctx context.Context, l *Lease) error {
	jobs := make([]scenario.Job, len(l.Jobs))
	for i, sp := range l.Jobs {
		jobs[i] = sp.Job
	}
	c, err := scenario.Compile(&scenario.Plan{Name: "lease " + l.ID, Jobs: jobs})
	if err != nil {
		w.release(l, "", "")
		return err
	}
	for i, h := range c.JobHashes() {
		if h != l.Jobs[i].Hash {
			w.release(l, "", "")
			return fmt.Errorf("dist: job %d hashes to %s here but the coordinator leased %s — version skew, refusing the batch",
				i, h, l.Jobs[i].Hash)
		}
	}
	w.logf("lease %s: %d jobs", l.ID, len(l.Jobs))

	// Rows stream from the session into a shipper goroutine that batches
	// deliveries and piggybacks lease renewal on each one (plus a bare
	// heartbeat when simulation outlasts a third of the TTL). The channel
	// holds the whole batch, so the session never blocks on the network.
	ship := make(chan ResultRow, len(l.Jobs))
	shipErr := make(chan error, 1)
	go func() { shipErr <- w.shipper(l, ship) }()
	runErr := w.sess.RunContext(ctx, c, exp.SinkFunc[scenario.Result](func(i int, r scenario.Result) error {
		row, err := WireRow(l.Jobs[i].Hash, r)
		if err != nil {
			return err
		}
		ship <- row
		return nil
	}))
	close(ship)
	serr := <-shipErr
	if runErr != nil {
		// Drained or failed mid-batch: the completed prefix has shipped;
		// release the rest for immediate requeue — except a job that
		// failed to simulate, which the release reports instead, so the
		// plans waiting on it fail rather than requeue it forever.
		var jerr *store.JobError
		if ctx.Err() == nil && errors.As(runErr, &jerr) {
			w.release(l, l.Jobs[jerr.Index].Hash, jerr.Error())
		} else {
			w.release(l, "", "")
		}
		return runErr
	}
	if serr != nil {
		w.release(l, "", "")
		return serr
	}
	w.leases.Add(1)
	return nil
}

// shipper drains the row channel, delivering batches with renew
// piggybacked, and heartbeats when no rows flow for a third of the TTL.
func (w *Worker) shipper(l *Lease, ship <-chan ResultRow) error {
	interval := l.TTL / 3
	if interval <= 0 {
		interval = w.ttl / 3
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var batch []ResultRow
	flush := func(heartbeat bool) error {
		if len(batch) == 0 && !heartbeat {
			return nil
		}
		var resp IngestResponse
		err := w.post("/v1/work/results", IngestRequest{
			Worker: w.opts.Name, Lease: l.ID, Rows: batch, Renew: true,
		}, &resp)
		if err != nil {
			return err
		}
		w.shipped.Add(int64(resp.Ingested + resp.Duplicate))
		batch = batch[:0]
		if resp.Rejected > 0 {
			return fmt.Errorf("coordinator rejected %d rows: %s", resp.Rejected, strings.Join(resp.Errors, "; "))
		}
		return nil
	}
	for {
		select {
		case row, ok := <-ship:
			if !ok {
				return flush(false)
			}
			batch = append(batch, row)
			if len(batch) >= shipBatch {
				if err := flush(false); err != nil {
					return err
				}
			}
		case <-tick.C:
			if err := flush(true); err != nil {
				return err
			}
		}
	}
}

// shipBatch is how many rows a delivery carries at most; small enough
// that progress renews the lease steadily, large enough to amortize the
// round trip.
const shipBatch = 16

// release abandons a lease best-effort so its unfinished jobs requeue
// without waiting out the deadline. failed, when set, is the hash of the
// job that failed to simulate with msg: it is not requeued.
func (w *Worker) release(l *Lease, failed, msg string) {
	w.released.Add(1)
	var resp IngestResponse
	if err := w.post("/v1/work/results", IngestRequest{
		Worker: w.opts.Name, Lease: l.ID, Release: true, Failed: failed, Error: msg,
	}, &resp); err != nil {
		w.logf("release %s: %v (the lease deadline requeues it)", l.ID, err)
	}
}

func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	if err := w.post("/v1/work/register", RegisterRequest{Worker: w.opts.Name}, &resp); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if resp.LeaseTTL > 0 {
		w.ttl = resp.LeaseTTL
	}
	return nil
}

func (w *Worker) lease() (*Lease, error) {
	var l Lease
	err := w.post("/v1/work/lease", LeaseRequest{Worker: w.opts.Name, Max: w.opts.MaxBatch}, &l)
	if err != nil {
		return nil, err
	}
	return &l, nil
}

// post issues one JSON round trip to the coordinator, retrying transient
// failures a few times with short backoff.
func (w *Worker) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 200 * time.Millisecond)
		}
		resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			lastErr = err
			continue
		}
		rb, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(rb)))
			if resp.StatusCode == http.StatusServiceUnavailable {
				continue // coordinator draining or restarting
			}
			return lastErr
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(rb, out)
	}
	return lastErr
}

// Summary snapshots the worker's totals.
func (w *Worker) Summary() WorkerSummary {
	return WorkerSummary{
		Leases:      w.leases.Load(),
		Shipped:     w.shipped.Load(),
		Released:    w.released.Load(),
		Simulated:   w.sess.Simulated(),
		StoreHits:   w.sess.StoreHits(),
		Quarantined: w.sess.Quarantined(),
		Repaired:    w.sess.Repaired(),
		Retried:     w.sess.Retried(),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log == nil {
		return
	}
	fmt.Fprintf(w.opts.Log, "rrbus-worker %s: %s\n", w.opts.Name, fmt.Sprintf(format, args...))
}

// sleepCtx sleeps for d unless ctx ends first, reporting whether the
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
