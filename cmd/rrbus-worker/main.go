// Command rrbus-worker is the fleet half of distributed sweeps: a
// daemon that registers with a distribute-mode rrbus-serve coordinator,
// leases batches of missing job specs, runs them through a local
// store-aware Session — inheriting the retry/quarantine/heal semantics
// every other runner has — and streams the measurement rows back with
// heartbeat lease renewal. Rows are content-addressed and integrity-
// checksummed on the wire, so deliveries are idempotent and a corrupted
// transfer is rejected and requeued rather than recorded.
//
// A worker is disposable by design: kill one mid-sweep and its lease
// expires on the coordinator, requeueing the unfinished jobs for the
// rest of the fleet. The first SIGINT/SIGTERM drains gracefully —
// in-flight jobs finish, their rows ship, and the unfinished remainder
// is released for immediate requeue — and prints the worker's totals; a
// second signal kills the process.
//
// With -store the worker keeps a local directory store, which doubles
// as a warm cache: a requeued job another worker already simulated here
// ships instantly without re-simulating.
//
// Usage:
//
//	rrbus-worker -coordinator http://host:8077
//	rrbus-worker -coordinator http://host:8077 -name w1 -store /tmp/w1 -workers 4 -batch 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rrbus"
	"rrbus/internal/cli"
)

const prog cli.Program = "rrbus-worker"

func main() {
	coordinator := flag.String("coordinator", "", "distribute-mode rrbus-serve URL, e.g. http://host:8077 (required)")
	name := flag.String("name", "", "worker name reported to the coordinator (default host-pid)")
	storeDir := flag.String("store", "", "local results store directory (default: in-memory; a directory doubles as a warm cache)")
	workers := flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 0, "max jobs per lease (0 = the coordinator's cap)")
	poll := flag.Duration("poll", 500*time.Millisecond, "sleep between polls when the queue is empty")
	flag.Parse()
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "rrbus-worker: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}
	st := prog.OpenStore(*storeDir)

	// First signal: finish in-flight jobs, ship their rows, release the
	// lease remainder for immediate requeue, report, exit clean. Second
	// signal: kill.
	ctx, stop := rrbus.SignalContext()
	defer stop()

	w := rrbus.NewWorker(*coordinator, rrbus.WorkerOptions{
		Name:     *name,
		Store:    st,
		Workers:  *workers,
		MaxBatch: *batch,
		Poll:     *poll,
		Retry:    rrbus.DefaultRetry,
		Log:      os.Stderr,
	})
	err := w.Run(ctx)
	sum := w.Summary()
	fmt.Fprintf(os.Stderr, "rrbus-worker: drained: %d leases, %d rows shipped, %d released, %d simulated, %d local hits, %d quarantined, %d repaired, %d retried\n",
		sum.Leases, sum.Shipped, sum.Released, sum.Simulated, sum.StoreHits, sum.Quarantined, sum.Repaired, sum.Retried)
	if err != nil && !errors.Is(err, context.Canceled) {
		prog.Fail(err)
	}
}
