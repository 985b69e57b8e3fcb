package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"rrbus/internal/dist"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// The work-distribution and store-sync endpoints. The work endpoints
// exist only in distribute mode (Options.Distribute), where submitted
// plans' missing jobs are leased to workers instead of simulated in a
// local session; the sync endpoints are always mounted, so any server
// doubles as a push/pull peer for `rrbus-store`.

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
// missing ones, count the rest as duplicates. When the server is also a
// distribute-mode coordinator, a pushed row satisfies any queued job
// waiting on its hash — pushing a warm store into a coordinator
// completes plans without simulating.
func (s *Server) handleStorePush(w http.ResponseWriter, r *http.Request) {
	var req dist.IngestRequest
	if !readJSON(w, r, &req) {
		return
	}
	var resp dist.IngestResponse
	for _, row := range req.Rows {
		res, err := dist.DecodeRow(row)
		if err != nil {
			resp.Rejected++
			if len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		if _, ok, gerr := s.st.Get(row.Hash); gerr == nil && ok {
			resp.Duplicate++
			continue
		}
		if err := s.st.Put(row.Hash, res); err != nil {
			resp.Rejected++
			if len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		resp.Ingested++
		if s.queue != nil {
			s.queue.Absorb(row.Hash)
		}
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

// runDistributed is the distribute-mode plan run: record the manifest,
// diff the plan against the store (quarantining corrupt rows so the
// fleet re-derives them — heal by distribution), enqueue the missing
// jobs and wait for workers to fill them, then read the complete row
// set back in job order. Every store read retries transient errors
// under Options.Retry, as a local session's do. The rendered document
// is byte-identical to a single-process run because both read the same
// rows from the same store.
func (s *Server) runDistributed(ps *planState) ([]scenario.Result, error) {
	c := ps.plan
	if pr, ok := s.st.(store.PlanRecorder); ok {
		if err := pr.PutPlan(c); err != nil {
			return nil, err
		}
	}
	get := func(h string) (r scenario.Result, ok bool, err error) {
		n, err := s.opts.Retry.Do(s.ctx, h, func() (err error) {
			r, ok, err = s.st.Get(h)
			return err
		})
		ps.mu.Lock()
		ps.distRetried += n
		ps.mu.Unlock()
		return r, ok, err
	}
	hashes := c.JobHashes()
	quarantiner, canHeal := s.st.(store.Quarantiner)
	var missing []dist.JobSpec
	var hits, quarantined int64
	for i, h := range hashes {
		_, ok, err := get(h)
		if err != nil && canHeal && store.IsCorrupt(err) {
			if qerr := quarantiner.Quarantine(h, err.Error()); qerr != nil {
				return nil, fmt.Errorf("job %q (hash %s): quarantine: %w", c.Jobs[i].ID, h, qerr)
			}
			quarantined++
			ok, err = false, nil
		}
		if err != nil {
			return nil, fmt.Errorf("job %q (hash %s): %w", c.Jobs[i].ID, h, err)
		}
		if ok {
			hits++
		} else {
			missing = append(missing, dist.JobSpec{Hash: h, Job: c.Jobs[i]})
		}
	}
	ps.mu.Lock()
	ps.distHits, ps.distQuarantined = hits, quarantined
	ps.mu.Unlock()
	s.queue.Enqueue(c.Hash(), missing)
	if err := s.queue.Wait(s.ctx, c.Hash()); err != nil {
		return nil, err
	}
	results := make([]scenario.Result, len(c.Jobs))
	for i, h := range hashes {
		r, ok, err := get(h)
		if err != nil {
			return nil, fmt.Errorf("job %q (hash %s): %w", c.Jobs[i].ID, h, err)
		}
		if !ok {
			return nil, fmt.Errorf("job %q (hash %s): row vanished after ingest (concurrent gc?)", c.Jobs[i].ID, h)
		}
		r.ID = c.Jobs[i].ID
		results[i] = r
	}
	return results, nil
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
