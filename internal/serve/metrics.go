package serve

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"rrbus/internal/sim"
)

// The /metrics endpoint hand-rolls the Prometheus text exposition format
// (version 0.0.4) — counters and gauges only, no labels, no client
// library. Everything job-shaped is read from each plan's counters
// (totalsOf: the same numbers the status endpoints and the drain
// summary report — one source of truth) and from the work queue;
// everything cycle-shaped comes from the simulator's process-wide
// sim.ExecStats tally.

// planCounters are a plan's counters: its store diffs' plus the queue's
// for the rows it waited on. They only grow: a status reports the
// latest run as the difference from the counters when it began.
type planCounters struct {
	simulated, hits, quarantined, repaired, retried int64
	leased, ingested, requeued                      int64
}

// plus returns t + sign·u, counter by counter.
func (t planCounters) plus(u planCounters, sign int64) planCounters {
	t.simulated += sign * u.simulated
	t.hits += sign * u.hits
	t.quarantined += sign * u.quarantined
	t.repaired += sign * u.repaired
	t.retried += sign * u.retried
	t.leased += sign * u.leased
	t.ingested += sign * u.ingested
	t.requeued += sign * u.requeued
	return t
}

// totalsOf sums a plan's counters over all its runs. Callers hold ps.mu.
func (s *Server) totalsOf(ps *planState) planCounters {
	qc := s.queue.PlanCounters(ps.plan.Hash())
	return planCounters{
		simulated:   qc.Simulated,
		hits:        ps.hits + qc.Hits,
		quarantined: ps.quarantined,
		repaired:    ps.repaired,
		retried:     ps.retried + qc.Retried,
		leased:      qc.Leased,
		ingested:    qc.Ingested,
		requeued:    qc.Requeued,
	}
}

// totalsLocked is the server-wide total /metrics and Drain report: every
// plan's counters summed. Callers hold s.mu.
func (s *Server) totalsLocked() planCounters {
	var tot planCounters
	for _, ps := range s.plans {
		ps.mu.Lock()
		tot = tot.plus(s.totalsOf(ps), 1)
		ps.mu.Unlock()
	}
	return tot
}

// handleMetrics renders the scrape. Counters must never decrease across
// a server's lifetime; gauges are instantaneous.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	tot := s.totalsLocked()
	var active int64
	for _, ps := range s.plans {
		ps.mu.Lock()
		if ps.status == StatusQueued || ps.status == StatusSimulating {
			active++
		}
		ps.mu.Unlock()
	}
	submitted, completed, failed := s.submitted, s.completed, s.failed
	s.mu.Unlock()
	qc, qg := s.queue.Counters(), s.queue.Gauges()

	es := sim.ReadExecStats()
	now := time.Now()
	s.scrapeMu.Lock()
	last, lastCycles := s.lastScrape, s.lastCycles
	if last.IsZero() {
		last = s.start
	}
	rate := 0.0
	if dt := now.Sub(last).Seconds(); dt > 0 {
		rate = float64(es.Cycles-lastCycles) / dt
	}
	s.lastScrape, s.lastCycles = now, es.Cycles
	s.scrapeMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter(w, "rrbus_plans_submitted_total", "Plan submissions accepted by POST /v1/plans.", float64(submitted))
	counter(w, "rrbus_plans_completed_total", "Plan runs that finished with every row recorded.", float64(completed))
	counter(w, "rrbus_plans_failed_total", "Plan runs that failed or were interrupted by a drain.", float64(failed))
	counter(w, "rrbus_jobs_simulated_total", "Jobs actually simulated (store misses).", float64(tot.simulated))
	counter(w, "rrbus_jobs_store_hits_total", "Jobs served from recorded store rows without simulating.", float64(tot.hits))
	counter(w, "rrbus_jobs_quarantined_total", "Corrupt store entries quarantined by self-healing sessions.", float64(tot.quarantined))
	counter(w, "rrbus_jobs_repaired_total", "Quarantined entries re-recorded with freshly simulated rows.", float64(tot.repaired))
	counter(w, "rrbus_store_retries_total", "Store operations retried after transient failures.", float64(tot.retried))
	counter(w, "rrbus_sim_steps_total", "Simulator macro-steps executed process-wide.", float64(es.Steps))
	counter(w, "rrbus_sim_cycles_total", "Simulated platform cycles covered process-wide.", float64(es.Cycles))
	counter(w, "rrbus_sim_extrapolated_cycles_total", "Cycles covered by steady-state period extrapolation.", float64(es.Extrapolated))
	counter(w, "rrbus_sim_periods_leapt_total", "Whole steady-state periods extrapolated in closed form.", float64(es.PeriodsLeapt))
	gauge(w, "rrbus_queue_depth", "Jobs waiting for a worker.", float64(qg.Pending))
	gauge(w, "rrbus_jobs_inflight", "Jobs a worker holds right now.", float64(qg.Leased))
	gauge(w, "rrbus_sessions_inflight", "Plan runs queued or simulating.", float64(active))
	gauge(w, "rrbus_sim_cycles_per_second", "Simulated cycles per wall second since the previous scrape.", rate)
	gauge(w, "rrbus_uptime_seconds", "Seconds since the server started.", now.Sub(s.start).Seconds())
	counter(w, "rrbus_dist_jobs_leased_total", "Job grants handed to workers (requeued jobs count again).", float64(qc.Leased))
	counter(w, "rrbus_dist_rows_ingested_total", "Rows accepted from workers and recorded in the store.", float64(qc.Ingested))
	counter(w, "rrbus_dist_jobs_requeued_total", "Jobs returned to the queue by expired or released leases.", float64(qc.Requeued))
	counter(w, "rrbus_dist_rows_rejected_total", "Delivered rows refused by the ingest integrity gate.", float64(qc.Rejected))
	counter(w, "rrbus_dist_rows_duplicate_total", "Delivered rows whose hash was already recorded.", float64(qc.Duplicate))
	gauge(w, "rrbus_dist_pending_jobs", "Jobs waiting for a worker.", float64(qg.Pending))
	gauge(w, "rrbus_dist_leased_jobs", "Jobs a worker holds, under a lease or in-process.", float64(qg.Leased))
	gauge(w, "rrbus_dist_leases_active", "Active leases.", float64(qg.Leases))
	gauge(w, "rrbus_dist_workers", "Remote workers seen within the last five lease TTLs.", float64(qg.Workers))
}

func counter(w io.Writer, name, help string, v float64) { metric(w, name, help, "counter", v) }
func gauge(w io.Writer, name, help string, v float64)   { metric(w, name, help, "gauge", v) }

func metric(w io.Writer, name, help, typ string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
}
