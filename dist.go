package rrbus

// The distribution surface of the pipeline: a coordinator/worker
// protocol over the content-addressed store. A Server started with
// ServeOptions.Distribute leases missing job hashes to Workers, ingests
// their rows idempotently with integrity checks, and requeues expired
// leases automatically; PushStore/PullStore sync two stores by hash
// delta. See the "Distribution" section of doc.go; cmd/rrbus-worker is
// the thin daemon over exactly this API.

import (
	"context"
	"net/http"

	"rrbus/internal/dist"
)

type (
	// Worker runs leased job batches from a distribute-mode Server
	// through a local store-aware Session and streams the rows back.
	// Create with NewWorker, run with Run; cancelling the context
	// (SignalContext in the daemon) drains gracefully.
	Worker = dist.Worker
	// WorkerOptions configure a Worker (name, local store, simulation
	// workers, batch size, poll interval, retry policy).
	WorkerOptions = dist.WorkerOptions
	// WorkerSummary is a drained worker's totals (leases, rows shipped,
	// local session counters).
	WorkerSummary = dist.WorkerSummary
	// WorkLease is a batch of jobs granted to a worker under a deadline.
	WorkLease = dist.Lease
	// WorkJobSpec is one leased unit: a compiled job plus the content
	// hash its row is expected under.
	WorkJobSpec = dist.JobSpec
	// WorkResultRow is one measurement row on the wire: job hash,
	// canonical row bytes and the store integrity checksum over them.
	WorkResultRow = dist.ResultRow
	// WorkIngest is a row delivery and/or lease renewal/release request.
	WorkIngest = dist.IngestRequest
	// WorkIngestReport reports what ingest did with a delivery.
	WorkIngestReport = dist.IngestResponse
	// StoreSyncReport is the outcome of a PushStore/PullStore transfer.
	StoreSyncReport = dist.SyncReport
	// SyncableStore is a store that can enumerate its row hashes — what
	// push/pull diff against; MemStore and DirStore both qualify.
	SyncableStore = dist.Syncable
)

// NewWorker returns a worker for the distribute-mode server at base
// (e.g. "http://host:8077").
func NewWorker(base string, opts WorkerOptions) *Worker { return dist.NewWorker(base, opts) }

// PushStore transfers the rows local holds and the server at base does
// not — delta only, diffed by content hash. A nil client uses a default.
func PushStore(ctx context.Context, local SyncableStore, base string, client *http.Client) (*StoreSyncReport, error) {
	return dist.Push(ctx, local, base, client)
}

// PullStore transfers the rows the server at base holds and local does
// not, verifying every row's integrity checksum before recording it.
func PullStore(ctx context.Context, local SyncableStore, base string, client *http.Client) (*StoreSyncReport, error) {
	return dist.Pull(ctx, local, base, client)
}
