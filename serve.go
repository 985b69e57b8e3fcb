package rrbus

// The serving surface of the pipeline: a long-running HTTP server over a
// content-addressed results store — plan submissions in, rendered bound
// documents out, warm plans served with zero simulation. See the
// "Serving" section of doc.go for the endpoint contract; cmd/rrbus-serve
// is the thin daemon over exactly this API.

import "rrbus/internal/serve"

type (
	// Server is the HTTP handler of the bound-as-a-service layer:
	// POST /v1/plans submits plans, GET /v1/plans/{hash} reports status,
	// GET /v1/plans/{hash}/doc renders documents through the report
	// backends, GET /metrics exposes Prometheus metrics. Create with
	// NewServer, mount on any http.Server, stop with Drain.
	Server = serve.Server
	// ServeOptions configure a Server (in-process worker pool,
	// concurrent plan bound, retry policy, coordinator mode).
	ServeOptions = serve.Options
	// PlanStatus is the JSON body of the server's plan status endpoints:
	// the StorePlanInfo shape extended with run status and the latest
	// run's live counters.
	PlanStatus = serve.PlanStatus
	// DrainSummary is what Server.Drain reports: the counters summed
	// over every plan run the server made.
	DrainSummary = serve.DrainSummary
)

// Plan lifecycle statuses reported by a Server.
const (
	PlanQueued      = serve.StatusQueued
	PlanSimulating  = serve.StatusSimulating
	PlanComplete    = serve.StatusComplete
	PlanFailed      = serve.StatusFailed
	PlanInterrupted = serve.StatusInterrupted
	PlanPartial     = serve.StatusPartial
)

// NewServer returns a bound-serving HTTP handler over st. The store is
// shared ground truth: rows recorded by CLIs are served warm, rows the
// server simulates become visible to them.
func NewServer(st Store, opts ServeOptions) *Server { return serve.New(st, opts) }

// StorePlansDocument builds the plan-manifest audit listing (one row per
// recorded plan with job count and row coverage) — the one builder
// behind both `rrbus-store ls` and the server's GET /v1/store/plans, so
// the two surfaces agree byte for byte.
func StorePlansDocument(label string, infos []StorePlanInfo, rows int) *Document {
	return serve.PlansDocument(label, infos, rows)
}
