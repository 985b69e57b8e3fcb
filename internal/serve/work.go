package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"rrbus/internal/dist"
	"rrbus/internal/scenario"
	"rrbus/internal/sim"
	"rrbus/internal/store"
)

// The plan run, the in-process workers, and the work-distribution and
// store-sync endpoints. The work endpoints exist only in distribute mode
// (Options.Distribute), where remote workers lease the missing jobs
// instead of the in-process pool; the sync endpoints are always mounted,
// so any server doubles as a push/pull peer for `rrbus-store`.

// handleWorkRegister announces a worker and returns the lease terms.
func (s *Server) handleWorkRegister(w http.ResponseWriter, r *http.Request) {
	var req dist.RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "register carries no worker name")
		return
	}
	s.queue.Register(req.Worker)
	writeJSON(w, http.StatusOK, dist.RegisterResponse{
		Worker:   req.Worker,
		LeaseTTL: s.queue.LeaseTTL(),
		MaxBatch: s.queue.MaxBatch(),
	})
}

// handleWorkLease grants a batch of pending jobs. A draining server
// stops handing out work (503) while still accepting results, so
// workers finish their current batch and move on.
func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	if s.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req dist.LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease request carries no worker name")
		return
	}
	writeJSON(w, http.StatusOK, s.queue.Lease(req.Worker, req.Max))
}

// handleWorkResults ingests delivered rows (idempotently, integrity-
// checked) and applies the renew/release the request asks for. Results
// are accepted even while draining: rows a worker already simulated
// should be recorded, not discarded.
func (s *Server) handleWorkResults(w http.ResponseWriter, r *http.Request) {
	var req dist.IngestRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, s.queue.Ingest(req))
}

// hashLister is the store-side requirement of the sync endpoints.
type hashLister interface {
	JobHashes() ([]string, error)
}

// handleStoreJobs lists every stored row hash — the remote side of a
// push/pull delta diff.
func (s *Server) handleStoreJobs(w http.ResponseWriter, _ *http.Request) {
	hl, ok := s.st.(hashLister)
	if !ok {
		writeError(w, http.StatusNotFound, "store cannot enumerate row hashes")
		return
	}
	hashes, err := hl.JobHashes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Hashes []string `json:"hashes"`
		Rows   int      `json:"rows"`
	}{hashes, len(hashes)})
}

// handleStorePush ingests pushed rows: verify each checksum, record the
// missing ones, count the rest as duplicates. A pushed row satisfies any
// queued job waiting on its hash — pushing a warm store into a server
// completes plans without simulating.
func (s *Server) handleStorePush(w http.ResponseWriter, r *http.Request) {
	var req dist.IngestRequest
	if !readJSON(w, r, &req) {
		return
	}
	var resp dist.IngestResponse
	for _, row := range req.Rows {
		res, err := dist.DecodeRow(row)
		if err == nil {
			if _, ok, gerr := s.st.Get(row.Hash); gerr == nil && ok {
				resp.Duplicate++
				continue
			}
			err = s.queue.Record(row.Hash, res)
		}
		if err != nil {
			resp.Rejected++
			if len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		resp.Ingested++
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStoreFetch returns the requested rows as integrity-checksummed
// wire rows (absent hashes are skipped; corrupt entries are reported,
// never served).
func (s *Server) handleStoreFetch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Hashes []string `json:"hashes"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Hashes) > 4096 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fetch of %d hashes exceeds the 4096 batch bound", len(req.Hashes)))
		return
	}
	var resp struct {
		Rows   []dist.ResultRow `json:"rows"`
		Errors []string         `json:"errors,omitempty"`
	}
	for _, h := range req.Hashes {
		res, ok, err := s.st.Get(h)
		if err != nil {
			if len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		if !ok {
			continue
		}
		row, err := dist.WireRow(h, res)
		if err != nil {
			if len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		resp.Rows = append(resp.Rows, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

// run is a plan's one execution path: record the manifest, diff the
// plan against the store (both retry transient errors under
// Options.Retry, and the diff quarantines corrupt entries so they
// re-simulate), enqueue the missing jobs and wait for the workers —
// in-process or remote — to hand their rows over. Each row is read once: the results are the rows the
// diff read plus the rows handed over, relabelled with the plan's job
// IDs, so the document is byte-identical to a single-process render.
func (s *Server) run(ps *planState) ([]scenario.Result, error) {
	c := ps.plan
	if pr, ok := s.st.(store.PlanRecorder); ok {
		n, err := s.opts.Retry.Do(s.ctx, c.Hash(), func() error { return pr.PutPlan(c) })
		ps.mu.Lock()
		ps.retried += n
		ps.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	results := make([]scenario.Result, len(c.Jobs))
	s.queue.Open(c.Hash())
	missing, healed, err := s.diff(ps, results)
	s.queue.Enqueue(c.Hash(), missing) // after an error, nil: ends the run
	if err != nil {
		return nil, err
	}
	rows, err := s.queue.Collect(s.ctx, c.Hash())
	ps.mu.Lock()
	for _, h := range healed {
		if _, ok := rows[h]; ok {
			ps.repaired++
		}
	}
	ps.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for i, h := range c.JobHashes() {
		if r, ok := rows[h]; ok {
			r.ID = c.Jobs[i].ID
			results[i] = r
		}
	}
	return results, nil
}

// diff reads every job's row once, filling results with the rows the
// store holds, and returns the missing jobs and the hashes of the
// corrupt entries it quarantined. Its counters go to ps.
func (s *Server) diff(ps *planState, results []scenario.Result) (missing []dist.JobSpec, healed []string, err error) {
	c := ps.plan
	quarantiner, canHeal := s.st.(store.Quarantiner)
	var hits, retried int64
	defer func() {
		ps.mu.Lock()
		ps.hits += hits
		ps.quarantined += int64(len(healed))
		ps.retried += retried
		ps.mu.Unlock()
	}()
	for i, h := range c.JobHashes() {
		var r scenario.Result
		var ok bool
		n, err := s.opts.Retry.Do(s.ctx, h, func() (err error) {
			r, ok, err = s.st.Get(h)
			return err
		})
		retried += n
		if err != nil && canHeal && store.IsCorrupt(err) {
			if qerr := quarantiner.Quarantine(h, err.Error()); qerr != nil {
				return nil, nil, fmt.Errorf("job %q (hash %s): quarantine: %w", c.Jobs[i].ID, h, qerr)
			}
			healed = append(healed, h)
			ok, err = false, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("job %q (hash %s): %w", c.Jobs[i].ID, h, err)
		}
		if ok {
			r.ID = c.Jobs[i].ID
			results[i] = r
			hits++
		} else {
			missing = append(missing, dist.JobSpec{Hash: h, Job: c.Jobs[i]})
		}
	}
	return missing, healed, nil
}

// work is one in-process worker: it takes jobs straight off the queue,
// simulates them and hands each row (or failure) back, until the drain.
// The job it holds when the drain begins still finishes and is recorded.
func (s *Server) work() {
	for {
		sp, ok := s.queue.Take(s.ctx)
		if !ok {
			return
		}
		r, err := sp.Job.Run(sim.Steady)
		s.queue.Finish(sp.Hash, r, err)
	}
}

// readJSON decodes a bounded JSON request body, writing the 400 itself
// on failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "body does not parse: "+err.Error())
		return false
	}
	return true
}
