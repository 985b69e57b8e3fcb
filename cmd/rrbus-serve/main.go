// Command rrbus-serve is the bound-as-a-service daemon: a long-running
// HTTP server over a content-addressed results store. Clients POST plan
// JSON (the same syntax a scenario file holds — a generator invocation,
// an explicit job list or a single scenario); the server compiles it to
// content hashes, queues only the jobs whose rows the store is missing,
// and serves the rendered bound documents through the report backends.
// A fully recorded ("warm") plan renders with zero simulation,
// byte-identical to the equivalent CLI render.
//
// Endpoints:
//
//	POST /v1/plans             submit a plan; returns 202 + status JSON
//	GET  /v1/plans             list submitted plans
//	GET  /v1/plans/<hash>      status: queued/simulating/complete plus the
//	                           run's Simulated/StoreHits/Quarantined/
//	                           Repaired counters and queue gauges
//	GET  /v1/plans/<hash>/doc  rendered document; ?format=text|html|json,
//	                           plan content hash as ETag
//	GET  /v1/store/plans       the store audit `rrbus-store ls` prints
//	GET  /v1/store/jobs        stored row hashes (push/pull delta diff)
//	POST /v1/store/jobs        ingest pushed rows (rrbus-store push)
//	POST /v1/store/fetch       fetch rows by hash (rrbus-store pull)
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness; 503 once a drain begins, so load
//	                           balancers and workers stop routing here
//
// Missing jobs go on one work queue. By default in-process workers
// simulate them: -plans × -workers at once (GOMAXPROCS with -workers 0).
// With -distribute the server is a coordinator instead: rrbus-worker
// daemons lease the jobs over POST /v1/work/{register,lease,results} —
// expired or abandoned leases requeue automatically, so a killed worker
// never strands a sweep.
//
// Concurrent duplicate submissions are deduplicated at two levels: a
// plan already queued or running is never started twice, and the queue
// tracks each missing job hash once, so overlapping plans wait on one
// row and a job simulates at most once.
//
// The first SIGINT/SIGTERM drains gracefully: the listener stops, the
// jobs in-process workers hold finish and their rows are recorded
// (interrupted plans resubmit warm), and the totals are printed. A
// second signal kills the process.
//
// Usage:
//
//	rrbus-serve -store results/
//	rrbus-serve -store results/ -addr :8077 -workers 4 -plans 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"

	"rrbus"
	"rrbus/internal/cli"
)

const prog cli.Program = "rrbus-serve"

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	storeDir := flag.String("store", "", "content-addressed results store directory (required)")
	workers := flag.Int("workers", 0, "in-process simulations per running plan: the pool is -plans × -workers (0 = a pool of GOMAXPROCS)")
	plans := flag.Int("plans", 0, "plans running concurrently (0 = 2)")
	distribute := flag.Bool("distribute", false, "coordinator mode: lease missing jobs to rrbus-worker daemons instead of simulating locally")
	leaseTTL := flag.Duration("lease-ttl", 0, "distribute: lease deadline without renewal before jobs requeue (0 = 30s)")
	leaseBatch := flag.Int("lease-batch", 0, "distribute: max jobs per lease (0 = 16)")
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "rrbus-serve: -store is required (the store is the server's ground truth)")
		flag.Usage()
		os.Exit(2)
	}
	server := rrbus.NewServer(prog.OpenStore(*storeDir), rrbus.ServeOptions{
		Workers:        *workers,
		MaxActivePlans: *plans,
		Retry:          rrbus.DefaultRetry,
		Distribute:     *distribute,
		LeaseTTL:       *leaseTTL,
		LeaseBatch:     *leaseBatch,
	})

	// First signal: stop the listener, drain the running plans (the rows
	// of jobs already held are recorded), report, exit clean. Second
	// signal: kill.
	ctx, stop := rrbus.SignalContext()
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: server}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	mode := ""
	if *distribute {
		mode = " (coordinator mode)"
	}
	fmt.Fprintf(os.Stderr, "rrbus-serve: listening on %s, store %s%s\n", *addr, *storeDir, mode)

	select {
	case err := <-errc:
		prog.Fail(err)
	case <-ctx.Done():
	}
	httpSrv.Shutdown(context.Background())
	sum := server.Drain()
	fmt.Fprintf(os.Stderr, "rrbus-serve: drained: %d plans (%d interrupted), %d simulated, %d hits, %d quarantined, %d repaired, %d retried\n",
		sum.Plans, sum.Interrupted, sum.Simulated, sum.StoreHits, sum.Quarantined, sum.Repaired, sum.Retried)
	if *distribute {
		fmt.Fprintf(os.Stderr, "rrbus-serve: distributed: %d leased, %d ingested, %d requeued\n",
			sum.Leased, sum.Ingested, sum.Requeued)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		prog.Fail(err)
	}
}
