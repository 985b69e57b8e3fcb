package rrbus

// The resilience surface of the pipeline: cooperative cancellation,
// retry policies for transient store failures, quarantine-and-resimulate
// self-healing for corrupt store entries, and store-wide repair. The
// deterministic fault injection that proves it (store.Faulty) stays
// inside internal/store, next to the chaos tests that drive it. See the
// "Resilience" section of doc.go for the contract.

import (
	"context"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rrbus/internal/store"
)

type (
	// RetryPolicy bounds a Session's retries of transient store errors
	// (exponential backoff with deterministic jitter). The zero value
	// disables retrying.
	RetryPolicy = store.RetryPolicy
	// TransientError marks a store failure as retryable (the stored data
	// is not suspected damaged; the operation just failed).
	TransientError = store.TransientError
	// CorruptError reports a damaged store entry — the class of failure
	// a Session self-heals by quarantining and re-simulating.
	CorruptError = store.CorruptError
	// Quarantiner is implemented by stores that can set damaged entries
	// aside (DirStore and MemStore both do).
	Quarantiner = store.Quarantiner
	// QuarantineInfo describes one quarantined entry (rrbus-store gc).
	QuarantineInfo = store.QuarantineInfo
	// RepairReport is the outcome of DirStore.Repair (rrbus-store
	// repair).
	RepairReport = store.RepairReport
)

// DefaultRetry is the retry policy the CLIs run with: a handful of
// quickly escalating attempts, enough to ride out a transient filesystem
// hiccup without masking a persistent failure.
var DefaultRetry = RetryPolicy{Max: 3, BaseDelay: 25 * time.Millisecond}

// IsCorruptStoreError reports whether err is (or wraps) a damaged-entry
// store failure.
func IsCorruptStoreError(err error) bool { return store.IsCorrupt(err) }

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM — the hook the CLIs pass to Session.RunContext so an
// interrupted sweep drains in-flight jobs and flushes completed rows
// (resumable warm) instead of dying mid-write. A second signal exits
// immediately with status 130, so a hung drain can always be cut short.
// The returned stop function releases the signal handler.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cancel()
		<-ch
		os.Exit(130)
	}()
	stop := func() {
		signal.Stop(ch)
		cancel()
	}
	return ctx, stop
}
