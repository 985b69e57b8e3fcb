// Package dist is the distributed execution layer of the pipeline: a
// coordinator/worker protocol over the content-addressed results store.
// The coordinator (internal/serve in distribute mode) compiles submitted
// plans, diffs their job hashes against the store and enqueues only the
// missing ones; workers (cmd/rrbus-worker) lease batches of job specs,
// run them through an ordinary local store.Session — inheriting
// retry/quarantine/heal semantics unchanged — and stream the rows back.
// The same Queue feeds a server's in-process workers (Take, Finish)
// when it does not distribute.
//
// The protocol leans entirely on content addressing:
//
//   - Idempotence. A row is keyed by its job's content hash, and every
//     honest writer produces the same bytes, so double delivery (a slow
//     worker racing its own requeued lease, a retry after a dropped
//     response) is harmless: the second copy is a duplicate, not a
//     conflict.
//   - Integrity. A wire row carries the same checksum the store records
//     on disk (store.SumRow over the canonical row bytes), verified
//     before ingest — a corrupted transfer is rejected and the job
//     requeued, never recorded.
//   - At-least-once completion. Work is handed out under leases with
//     deadlines; a worker renews its lease by shipping rows or
//     heartbeating. A killed worker's lease expires and its un-ingested
//     jobs requeue automatically, so a crash never strands a sweep.
//
// Byte-identity is preserved end to end: a plan simulated through a
// coordinator plus any number of workers renders exactly the bytes a
// single-process run produces, because the queue hands each waiting plan
// the very row it records in the store.
package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// JobSpec is one unit of leased work: the compiled job and the content
// hash the coordinator expects its row under. Workers recompile the job
// locally and verify the hash matches before simulating — a hash
// mismatch means coordinator and worker builds canonicalize differently
// (version skew), and simulating would record rows under addresses the
// coordinator never asked for.
type JobSpec struct {
	Hash string       `json:"hash"`
	Job  scenario.Job `json:"job"`
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterResponse tells the worker the coordinator's lease terms: how
// often it must renew (ship rows or heartbeat well within LeaseTTL) and
// the largest batch a lease will carry.
type RegisterResponse struct {
	Worker   string        `json:"worker"`
	LeaseTTL time.Duration `json:"lease_ttl"`
	MaxBatch int           `json:"max_batch"`
}

// LeaseRequest asks for a batch of work. Max caps the batch (0 or
// anything above the coordinator's configured batch size means "as much
// as allowed").
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// Lease is a batch of jobs granted to one worker under a deadline. An
// empty lease (no ID, no jobs) means the queue is momentarily empty —
// poll again. The deadline extends every time the worker ships rows or
// heartbeats against the lease; once it passes, the un-ingested jobs
// requeue and any late rows are absorbed as duplicates.
type Lease struct {
	ID       string        `json:"id,omitempty"`
	Worker   string        `json:"worker"`
	Jobs     []JobSpec     `json:"jobs,omitempty"`
	Deadline time.Time     `json:"deadline,omitempty"`
	TTL      time.Duration `json:"ttl"`
}

// ResultRow is one measurement row on the wire: the job content hash it
// belongs under, the canonical row bytes, and the same integrity
// checksum the store files on disk. Ingest recomputes the checksum
// before trusting the bytes.
type ResultRow struct {
	Hash   string          `json:"hash"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// IngestRequest delivers rows and/or maintains a lease: Renew extends
// the deadline (a bare heartbeat ships no rows), Release abandons the
// lease so its unfinished jobs requeue immediately — what a draining
// worker sends instead of letting the deadline lapse. A release may name
// a job of the lease that failed to simulate (Failed, its hash) with the
// error: that job is not requeued, and every plan waiting on it fails.
type IngestRequest struct {
	Worker  string      `json:"worker,omitempty"`
	Lease   string      `json:"lease,omitempty"`
	Rows    []ResultRow `json:"rows,omitempty"`
	Renew   bool        `json:"renew,omitempty"`
	Release bool        `json:"release,omitempty"`
	Failed  string      `json:"failed,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// IngestResponse reports what happened to each delivered row in
// aggregate, plus the lease's new deadline when it was renewed. Done
// reports that the lease has no jobs left (all ingested or released).
type IngestResponse struct {
	Ingested  int       `json:"ingested"`
	Duplicate int       `json:"duplicate"`
	Rejected  int       `json:"rejected"`
	Errors    []string  `json:"errors,omitempty"`
	Deadline  time.Time `json:"deadline,omitempty"`
	Done      bool      `json:"done,omitempty"`
}

// WireRow packages a row for transfer: canonical (content-addressed)
// JSON bytes plus the store checksum over them.
func WireRow(jobHash string, r scenario.Result) (ResultRow, error) {
	row, err := json.Marshal(store.NormalizeRow(r))
	if err != nil {
		return ResultRow{}, fmt.Errorf("dist: marshal row %s: %w", jobHash, err)
	}
	return ResultRow{Hash: jobHash, Sum: store.SumRow(jobHash, row), Result: row}, nil
}

// compactJSON reports whether b has no white space outside its strings:
// for valid JSON, whether json.Compact would leave it unchanged.
func compactJSON(b []byte) bool {
	inString := false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false
		}
	}
	return true
}

// DecodeRow verifies a wire row's integrity and decodes it: the checksum
// must match the bytes, the bytes must parse, and the schema must be
// readable by this build. This is the ingest-side gate — a row that
// fails here is never recorded. The bytes are decoded as the store
// decodes a stored row, by scenario.DecodeResult, which reads the
// compact rows WireRow sends in one pass.
func DecodeRow(row ResultRow) (scenario.Result, error) {
	var zero scenario.Result
	if row.Hash == "" {
		return zero, fmt.Errorf("dist: row carries no job hash")
	}
	// The checksum is defined over the canonical compact bytes, but a
	// JSON transport is free to re-indent embedded raw messages (the
	// coordinator's responses are pretty-printed), so bytes that are not
	// compact are compacted before verifying. Compaction only strips
	// inter-token whitespace — any in-string tampering still changes the
	// sum. WireRow sends compact bytes, so an honest row skips it: a sum
	// that matches the bytes as sent, with no whitespace between their
	// tokens, is the sum json.Compact would have checked, and
	// DecodeResult rejects exactly the bytes that do not parse.
	raw := row.Result
	if store.SumRow(row.Hash, raw) != row.Sum || !compactJSON(raw) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, row.Result); err != nil {
			return zero, fmt.Errorf("dist: %s: row does not parse: %v", row.Hash, err)
		}
		raw = compact.Bytes()
		if got := store.SumRow(row.Hash, raw); got != row.Sum {
			return zero, fmt.Errorf("dist: %s: checksum mismatch (sent %s, computed %s) — corrupted in transit", row.Hash, row.Sum, got)
		}
	}
	r, err := scenario.DecodeResult(raw)
	if err != nil {
		return zero, fmt.Errorf("dist: %s: row does not parse: %v", row.Hash, err)
	}
	if r.Schema > scenario.ResultSchema {
		return zero, fmt.Errorf("dist: %s: row schema %d but this build reads <= %d — worker newer than coordinator?", row.Hash, r.Schema, scenario.ResultSchema)
	}
	return r, nil
}
