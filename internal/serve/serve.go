// Package serve is the bound-as-a-service layer of the pipeline: a
// long-running HTTP server over a content-addressed results store.
// Clients POST plans (the same JSON a scenario file holds — a generator
// invocation, an explicit job list or a single scenario); the server
// compiles them to content hashes, diffs against the store and simulates
// only the missing rows through a bounded, store-aware Session, then
// serves the rendered bound documents through the report backends. A
// warm plan — every row already recorded — renders with zero simulation,
// which is the ROADMAP's "one warm store, many readers" shape: derive
// once, serve the document to everyone.
//
// Endpoints:
//
//	POST /v1/plans                 submit a plan JSON; 202 + status
//	GET  /v1/plans                 list submitted plans (status JSON)
//	GET  /v1/plans/{hash}          one plan's status + session counters
//	GET  /v1/plans/{hash}/doc      rendered document (?format=text|html|json),
//	                               plan content hash as ETag
//	GET  /v1/store/plans           the store's manifest audit (rrbus-store ls
//	                               over HTTP; ?format= as above)
//	GET  /v1/store/jobs            stored row hashes (push/pull delta diff)
//	POST /v1/store/jobs            ingest pushed rows (rrbus-store push)
//	POST /v1/store/fetch           fetch rows by hash (rrbus-store pull)
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  liveness; 503 once a drain begins
//
// In distribute mode (Options.Distribute) the server is a coordinator:
// plans' missing jobs are leased to rrbus-worker daemons instead of
// simulated locally, over three more endpoints:
//
//	POST /v1/work/register         announce a worker, learn lease terms
//	POST /v1/work/lease            lease a batch of missing job specs
//	POST /v1/work/results          deliver rows; renew/release the lease
//
// Concurrent submissions are doubly deduplicated: resubmitting a plan
// that is queued or running returns its current status without a second
// run, and overlapping plans share a store.Dedup (or, in distribute
// mode, the work queue's per-hash tracking) so a missing job hash
// simulates at most once across all in-flight sessions.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"rrbus/internal/dist"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// Options configure a Server. The zero value is usable: engine-default
// worker count, 2 concurrent plan runs, no retries.
type Options struct {
	// Workers bounds each plan session's simulation goroutines
	// (0 = the engine default, GOMAXPROCS).
	Workers int
	// MaxActivePlans bounds how many submitted plans simulate
	// concurrently; further plans wait queued (0 = 2).
	MaxActivePlans int
	// Retry is the per-session retry policy for transient store errors
	// (the CLIs use rrbus.DefaultRetry; the zero value disables retries).
	Retry store.RetryPolicy
	// Distribute turns the server into a coordinator: submitted plans'
	// missing jobs are leased to rrbus-worker daemons over the /v1/work
	// endpoints instead of simulated in a local session.
	Distribute bool
	// LeaseTTL bounds how long a worker may hold a leased batch without
	// renewing before it requeues (0 = dist.DefaultLeaseTTL). Distribute
	// mode only.
	LeaseTTL time.Duration
	// LeaseBatch caps the jobs handed out per lease
	// (0 = dist.DefaultMaxBatch). Distribute mode only.
	LeaseBatch int
}

// Status values reported by the plan endpoints.
const (
	StatusQueued      = "queued"      // accepted, waiting for a run slot
	StatusSimulating  = "simulating"  // session running (store hits + fresh simulation)
	StatusComplete    = "complete"    // all rows recorded, document servable
	StatusFailed      = "failed"      // run error (see the error field)
	StatusInterrupted = "interrupted" // drained by shutdown; resubmit to resume warm
	// StatusPartial reports a plan known only from a store manifest whose
	// rows are not all present (GET of an unsubmitted hash).
	StatusPartial = "partial"
)

// PlanStatus is the JSON body of the status endpoints: the same
// PlanInfo shape the rrbus-store audit CLI reports (hash, name,
// generator, job count, rows present, error), extended with the run
// status and the live Session counters and gauges.
type PlanStatus struct {
	store.PlanInfo
	Status      string `json:"status"`
	Simulated   int64  `json:"simulated"`
	StoreHits   int64  `json:"store_hits"`
	Quarantined int64  `json:"quarantined"`
	Repaired    int64  `json:"repaired"`
	Retried     int64  `json:"retried"`
	QueueDepth  int64  `json:"queue_depth"`
	InFlight    int64  `json:"in_flight"`
	// Distribution counters (coordinator mode only): job grants to
	// workers, rows ingested from them, and jobs requeued by expired or
	// released leases — all for this plan's jobs.
	Leased   int64 `json:"leased,omitempty"`
	Ingested int64 `json:"ingested,omitempty"`
	Requeued int64 `json:"requeued,omitempty"`
}

// planState is one registered plan's lifecycle. The latest run's session
// provides the counters a PlanStatus reports, so a warm resubmission
// visibly reports zero simulated jobs.
type planState struct {
	plan *scenario.Compiled

	mu      sync.Mutex
	status  string
	sess    *store.Session
	view    *store.DedupStore
	results []scenario.Result
	err     string
	// Coordinator-mode runs have no session; the diff pass records how
	// many rows the store already held (and how many corrupt entries it
	// quarantined for the fleet to re-derive), the store reads count
	// their retries, and the queue tracks the rest per plan hash.
	distributed     bool
	distHits        int64
	distQuarantined int64
	distRetried     int64
}

// Server is the HTTP handler. Create with New, serve with http.Server,
// stop with Drain.
type Server struct {
	st   store.Store
	opts Options
	mux  *http.ServeMux

	// dedup coordinates all plan sessions sharing st so overlapping
	// submissions never simulate a job hash twice.
	dedup *store.Dedup

	// queue is the coordinator work queue (Distribute mode only; nil
	// otherwise). Its dedup role is structural: overlapping plans
	// enqueue a missing hash once and both wait on its row.
	queue *dist.Queue

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{}

	mu        sync.Mutex
	plans     map[string]*planState
	order     []string
	folded    sessionTotals // counters of sessions replaced by re-runs
	submitted int64
	completed int64
	failed    int64

	start time.Time

	scrapeMu   sync.Mutex
	lastScrape time.Time
	lastCycles uint64
}

// manifestStore is the optional audit surface a Dir-backed store exposes:
// it lets the server report and serve plans it never saw submitted —
// anything a CLI recorded into the shared store.
type manifestStore interface {
	PlanInfo(planHash string) store.PlanInfo
	PlanSpec(planHash string) (*scenario.Plan, error)
	PlanInfos() ([]store.PlanInfo, error)
	Root() string
	Len() (int, error)
}

// New returns a server over st. The store is shared: rows recorded by
// concurrent CLIs are served, rows the server simulates become visible
// to them.
func New(st store.Store, opts Options) *Server {
	if opts.MaxActivePlans <= 0 {
		opts.MaxActivePlans = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		st:     st,
		opts:   opts,
		dedup:  store.NewDedup(),
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, opts.MaxActivePlans),
		plans:  map[string]*planState{},
		start:  time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plans", s.handleSubmit)
	mux.HandleFunc("GET /v1/plans", s.handleList)
	mux.HandleFunc("GET /v1/plans/{hash}", s.handleStatus)
	mux.HandleFunc("GET /v1/plans/{hash}/doc", s.handleDoc)
	mux.HandleFunc("GET /v1/store/plans", s.handleStorePlans)
	mux.HandleFunc("GET /v1/store/jobs", s.handleStoreJobs)
	mux.HandleFunc("POST /v1/store/jobs", s.handleStorePush)
	mux.HandleFunc("POST /v1/store/fetch", s.handleStoreFetch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if opts.Distribute {
		s.queue = dist.NewQueue(st, dist.QueueOptions{LeaseTTL: opts.LeaseTTL, MaxBatch: opts.LeaseBatch})
		mux.HandleFunc("POST /v1/work/register", s.handleWorkRegister)
		mux.HandleFunc("POST /v1/work/lease", s.handleWorkLease)
		mux.HandleFunc("POST /v1/work/results", s.handleWorkResults)
		// The janitor requeues expired leases even when no worker is
		// calling in; it exits with the drain.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.queue.Janitor(s.ctx)
		}()
	}
	s.mux = mux
	return s
}

// handleHealthz is the load-balancer liveness probe. It flips to 503 the
// moment a drain begins — before the listener closes — so balancers and
// workers stop routing to a dying coordinator while in-flight work
// finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.ctx.Err() != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleSubmit accepts a plan JSON body (scenario-file syntax: generator
// invocation, explicit job list, or single scenario), compiles it,
// registers it and — unless an identical plan is already queued or
// running — starts a session over the store. The response is the plan's
// status; poll GET /v1/plans/{hash} until it reports complete.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var spec scenario.Plan
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "plan does not parse: "+err.Error())
		return
	}
	c, err := scenario.Compile(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ps := s.register(c)
	w.Header().Set("Location", "/v1/plans/"+c.Hash())
	writeJSON(w, http.StatusAccepted, s.statusOf(ps))
}

// register returns the plan's state, scheduling a run unless one is
// already queued or in flight. Resubmitting a finished plan runs it
// again — against a warm store that is an all-hits pass that revalidates
// (and self-heals) the recorded rows without simulating.
func (s *Server) register(c *scenario.Compiled) *planState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted++
	ps := s.plans[c.Hash()]
	if ps == nil {
		ps = &planState{plan: c}
		s.plans[c.Hash()] = ps
		s.order = append(s.order, c.Hash())
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.status == StatusQueued || ps.status == StatusSimulating {
		return ps // the running session already covers this submission
	}
	if ps.sess != nil {
		// A re-run replaces the session; fold the old counters into the
		// server totals so /metrics stays monotonic while the status
		// endpoint reports the latest run alone.
		s.folded.add(ps.sess)
	}
	ps.status = StatusQueued
	ps.results = nil
	ps.err = ""
	if s.queue != nil {
		// Coordinator mode: no local session — the store diff and the
		// worker fleet do the running. The queue deduplicates overlapping
		// plans by job hash, playing the role the session dedup table
		// plays in local mode.
		ps.distributed = true
		ps.sess, ps.view = nil, nil
		ps.distHits, ps.distQuarantined, ps.distRetried = 0, 0, 0
	} else {
		view := s.dedup.Wrap(s.st)
		ps.sess = &store.Session{Store: view, Workers: s.opts.Workers, Retry: s.opts.Retry}
		ps.view = view
	}
	s.schedule(ps)
	return ps
}

// schedule runs the plan's session once a concurrency slot frees up.
// Cancelling the server context both skips queued plans and drains
// running ones (in-flight jobs finish, completed rows stay recorded).
func (s *Server) schedule(ps *planState) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.sem <- struct{}{}:
		case <-s.ctx.Done():
			s.finish(ps, nil, s.ctx.Err())
			return
		}
		defer func() { <-s.sem }()
		ps.mu.Lock()
		ps.status = StatusSimulating
		sess, view := ps.sess, ps.view
		ps.mu.Unlock()
		if sess == nil {
			// Coordinator mode: diff, enqueue, wait for the fleet.
			results, err := s.runDistributed(ps)
			s.finish(ps, results, err)
			return
		}
		results, err := sess.RunAllContext(s.ctx, ps.plan)
		// Release any dedup claims a failed or drained run still holds,
		// so sessions waiting on those hashes wake and simulate them
		// themselves.
		view.Close()
		s.finish(ps, results, err)
	}()
}

func (s *Server) finish(ps *planState, results []scenario.Result, err error) {
	ps.mu.Lock()
	switch {
	case err == nil:
		ps.status = StatusComplete
		ps.results = results
	case errors.Is(err, context.Canceled):
		ps.status = StatusInterrupted
		ps.err = "interrupted by shutdown; completed rows are recorded — resubmit to resume warm"
	default:
		ps.status = StatusFailed
		ps.err = err.Error()
	}
	done := ps.status == StatusComplete
	ps.mu.Unlock()
	s.mu.Lock()
	if done {
		s.completed++
	} else {
		s.failed++
	}
	s.mu.Unlock()
}

// statusOf snapshots one plan's status. Present is the rows known served
// or recorded by the latest run — for a complete run, the full job list.
func (s *Server) statusOf(ps *planState) PlanStatus {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return s.statusLocked(ps)
}

// statusLocked is statusOf for a caller that already holds ps.mu, so a
// handler can decide on and report the same snapshot.
func (s *Server) statusLocked(ps *planState) PlanStatus {
	c, sess := ps.plan, ps.sess
	st := PlanStatus{
		PlanInfo: store.PlanInfo{
			Hash:      c.Hash(),
			Name:      c.Spec.Name,
			Generator: c.Generator(),
			Jobs:      len(c.Jobs),
			Err:       ps.err,
		},
		Status: ps.status,
	}
	if sess != nil {
		st.Simulated = sess.Simulated()
		st.StoreHits = sess.StoreHits()
		st.Quarantined = sess.Quarantined()
		st.Repaired = sess.Repaired()
		st.Retried = sess.Retried()
		st.QueueDepth = sess.QueueDepth()
		st.InFlight = sess.InFlight()
	} else if ps.distributed && s.queue != nil {
		// Coordinator mode: the fleet simulates, the queue counts. Rows
		// ingested from workers are the runs this plan caused, so they
		// fill the Simulated slot a warm resubmission reports as 0.
		pc := s.queue.PlanCounters(c.Hash())
		st.Leased, st.Ingested, st.Requeued = pc.Leased, pc.Ingested, pc.Requeued
		st.Simulated = pc.Ingested
		st.StoreHits = ps.distHits
		st.Quarantined = ps.distQuarantined
		st.Retried = ps.distRetried
	}
	st.Present = int(st.Simulated + st.StoreHits)
	if st.Present > st.Jobs {
		st.Present = st.Jobs
	}
	return st
}

// handleStatus reports one plan: a registered submission by preference,
// else — when the store records manifests — a plan some CLI ran against
// the shared store, so readers see one coherent catalog either way.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	s.mu.Lock()
	ps := s.plans[hash]
	s.mu.Unlock()
	if ps != nil {
		writeJSON(w, http.StatusOK, s.statusOf(ps))
		return
	}
	ms, ok := s.st.(manifestStore)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown plan "+hash)
		return
	}
	info := ms.PlanInfo(hash)
	if info.Err != "" {
		writeError(w, http.StatusNotFound, "unknown plan "+hash+": "+info.Err)
		return
	}
	status := StatusPartial
	if info.Jobs > 0 && info.Present == info.Jobs {
		status = StatusComplete
	}
	writeJSON(w, http.StatusOK, PlanStatus{PlanInfo: info, Status: status})
}

// handleList reports every registered plan in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	states := make([]*planState, 0, len(s.order))
	for _, h := range s.order {
		states = append(states, s.plans[h])
	}
	s.mu.Unlock()
	out := make([]PlanStatus, 0, len(states))
	for _, ps := range states {
		out = append(out, s.statusOf(ps))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDoc renders a plan's document through a report backend. A
// complete submission renders from its collected results; any other
// fully recorded plan (a CLI sweep, a previous server life) renders
// straight from the store — zero simulation either way, which is the
// warm-path contract. The plan content hash is the ETag, so clients
// cache rendered bounds across polls.
func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	format := r.URL.Query().Get("format")
	backend, err := report.BackendFor(format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	etag := fmt.Sprintf("%q", hash+"."+backendName(format))
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	s.mu.Lock()
	ps := s.plans[hash]
	s.mu.Unlock()
	var c *scenario.Compiled
	var results []scenario.Result
	if ps != nil {
		ps.mu.Lock()
		complete := ps.status == StatusComplete
		c, results = ps.plan, ps.results
		var st PlanStatus
		if !complete {
			st = s.statusLocked(ps)
		}
		ps.mu.Unlock()
		if !complete {
			// Not renderable (yet): report the status that made the call,
			// so pollers can tell "wait" from "gone".
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusConflict, st)
			return
		}
	} else {
		c, results, err = s.loadRecorded(hash)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		if results == nil {
			writeError(w, http.StatusConflict,
				"plan "+hash+" is not fully recorded; POST it to /v1/plans to simulate the missing rows")
			return
		}
	}

	doc, err := planDocument(c, results)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var buf bytes.Buffer
	if err := report.RenderTo(&buf, doc, backend); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Header().Set("ETag", etag)
	w.Write(buf.Bytes())
}

// loadRecorded recompiles a store manifest's spec and fetches every row
// by content hash — Gets only, never a simulation. A fully recorded plan
// returns its results; a partial one returns (plan, nil, nil).
func (s *Server) loadRecorded(hash string) (*scenario.Compiled, []scenario.Result, error) {
	ms, ok := s.st.(manifestStore)
	if !ok {
		return nil, nil, fmt.Errorf("unknown plan %s", hash)
	}
	spec, err := ms.PlanSpec(hash)
	if err != nil {
		return nil, nil, fmt.Errorf("unknown plan %s: %v", hash, err)
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, nil, err
	}
	results := make([]scenario.Result, len(c.Jobs))
	for i, jh := range c.JobHashes() {
		r, ok, err := s.st.Get(jh)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return c, nil, nil
		}
		r.ID = c.Jobs[i].ID
		results[i] = r
	}
	return c, results, nil
}

// planDocument builds the document exactly the way the CLIs do —
// DocumentFor plus the scenario fallback heading for generators without
// a figure renderer — so a document fetched over HTTP is byte-identical
// to `rrbus-figures -scenario ... -store ...` output for the same plan.
// (The one CLI nicety not reproducible here: an unnamed explicit job
// list is labeled by its file path in the CLI; the server has no path
// and uses the generic plan name.)
func planDocument(c *scenario.Compiled, results []scenario.Result) (*report.Document, error) {
	doc, err := report.DocumentFor(c.Generator(), c.Jobs, results)
	if err != nil {
		return nil, err
	}
	if doc.Title == "" {
		doc.Title = c.Name()
	}
	if _, ok := report.For(c.Generator()); !ok {
		doc.Prepend(report.Heading{Level: 1, Text: fmt.Sprintf("scenario %s: %d jobs", c.Name(), len(c.Jobs))})
	}
	return doc, nil
}

// handleStorePlans renders the store's manifest audit — the same
// document `rrbus-store ls` prints, served over HTTP.
func (s *Server) handleStorePlans(w http.ResponseWriter, r *http.Request) {
	ms, ok := s.st.(manifestStore)
	if !ok {
		writeError(w, http.StatusNotFound, "store does not record plan manifests")
		return
	}
	format := r.URL.Query().Get("format")
	backend, err := report.BackendFor(format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	infos, err := ms.PlanInfos()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rows, err := ms.Len()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var buf bytes.Buffer
	if err := report.RenderTo(&buf, PlansDocument(ms.Root(), infos, rows), backend); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Write(buf.Bytes())
}

// DrainSummary is what a graceful shutdown reports: the same Session
// counters and gauges /metrics exposes, summed over every session the
// server ran.
type DrainSummary struct {
	Plans       int   // plans registered over the server's lifetime
	Interrupted int   // plans whose run the drain cut short
	Simulated   int64 // jobs simulated across all sessions
	StoreHits   int64 // jobs served from the store
	Quarantined int64 // corrupt entries healed
	Repaired    int64
	Retried     int64
	// Distribution totals (coordinator mode; zero otherwise).
	Leased   int64 // job grants to workers
	Ingested int64 // rows ingested from workers
	Requeued int64 // jobs requeued by expired or released leases
}

// Drain stops the server's work: no new submissions are accepted, queued
// plans are marked interrupted, running sessions drain gracefully
// (in-flight jobs finish and their rows are recorded — a resubmission
// resumes warm), and the summary of everything the server did comes
// back. Safe to call once; the HTTP listener itself is the caller's to
// shut down.
func (s *Server) Drain() DrainSummary {
	s.cancel()
	s.wg.Wait()
	sum := DrainSummary{}
	s.mu.Lock()
	defer s.mu.Unlock()
	sum.Plans = len(s.plans)
	tot := s.folded
	for _, ps := range s.plans {
		ps.mu.Lock()
		if ps.status == StatusInterrupted {
			sum.Interrupted++
		}
		if ps.sess != nil {
			tot.add(ps.sess)
		}
		ps.mu.Unlock()
	}
	sum.Simulated = tot.simulated
	sum.StoreHits = tot.hits
	sum.Quarantined = tot.quarantined
	sum.Repaired = tot.repaired
	sum.Retried = tot.retried
	if s.queue != nil {
		qc := s.queue.Counters()
		sum.Leased, sum.Ingested, sum.Requeued = qc.Leased, qc.Ingested, qc.Requeued
		sum.Simulated += qc.Ingested
		for _, ps := range s.plans {
			ps.mu.Lock()
			sum.StoreHits += ps.distHits
			sum.Quarantined += ps.distQuarantined
			sum.Retried += ps.distRetried
			ps.mu.Unlock()
		}
	}
	return sum
}

// backendName normalizes the ?format= value ("" selects text).
func backendName(format string) string {
	if format == "" {
		return "text"
	}
	return format
}

func contentTypeFor(format string) string {
	switch backendName(format) {
	case "html":
		return "text/html; charset=utf-8"
	case "json":
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(data, '\n'))
}
