// Dist walkthrough: the distributed sweep fabric end to end — start a
// coordinator (an rrbus.Server in distribute mode), attach two workers,
// submit a plan and watch the fleet lease, simulate and stream the rows
// back; prove the rendered document is byte-identical to a
// single-process run; drain a worker mid-sweep and watch its lease
// requeue onto the survivor; then sync stores by hash delta with
// PushStore/PullStore — a laptop pulling a cluster's rows, a warm cache
// pushed into a fresh coordinator.
//
// Every piece is the same API cmd/rrbus-serve (-distribute) and
// cmd/rrbus-worker wrap; the example drives it in-process.
//
// Run with:
//
//	go run ./examples/dist
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"rrbus"
)

// fig7 is the paper's central rsk-nop slowdown sweep: one job per k, an
// embarrassingly parallel list the fabric can scatter.
const fig7Plan = `{"generator": "fig7", "params": {"arch": "toy", "kmax": 12}}`

func main() {
	// ── The single-process reference ─────────────────────────────────
	// Byte-identity is the fabric's contract, so first produce the bytes
	// a plain local run renders.
	plan, err := rrbus.GeneratorPlan("fig7", rrbus.Params{"arch": "toy", "kmax": 12})
	if err != nil {
		log.Fatal(err)
	}
	localStore := rrbus.NewMemStore()
	sess := &rrbus.Session{Store: localStore}
	results, err := sess.RunAll(plan)
	if err != nil {
		log.Fatal(err)
	}
	reference, err := rrbus.Render(plan, results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single process: %d jobs simulated, %d bytes of document\n\n",
		len(plan.Jobs), len(reference))

	// ── The coordinator ──────────────────────────────────────────────
	// Distribute mode: submitted plans are diffed against the store and
	// the missing job hashes wait on the queue for remote workers to
	// lease them; the server simulates nothing itself. cmd/rrbus-serve
	// mounts exactly this:
	//
	//	rrbus-serve -store results/ -addr :8077 -distribute -lease-ttl 30s
	coordStore := rrbus.NewMemStore()
	server := rrbus.NewServer(coordStore, rrbus.ServeOptions{
		Distribute: true,
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 4,
	})
	ts := httptest.NewServer(server)
	defer ts.Close()

	// ── The fleet ────────────────────────────────────────────────────
	// Workers register, lease batches of compiled jobs, run them through
	// an ordinary local store-aware Session (inheriting retry, quarantine
	// and healing unchanged) and stream the rows back, renewing their
	// lease with every delivery. cmd/rrbus-worker is this loop:
	//
	//	rrbus-worker -coordinator http://host:8077 -store cache/
	ctx, cancelFleet := context.WithCancel(context.Background())
	defer cancelFleet()
	var fleet sync.WaitGroup
	workers := make([]*rrbus.Worker, 2)
	cancels := make([]context.CancelFunc, 2)
	for i := range workers {
		w := rrbus.NewWorker(ts.URL, rrbus.WorkerOptions{
			Name: fmt.Sprintf("w%d", i+1),
			Poll: 10 * time.Millisecond,
		})
		wctx, cancel := context.WithCancel(ctx)
		workers[i], cancels[i] = w, cancel
		fleet.Add(1)
		go func() { defer fleet.Done(); w.Run(wctx) }()
	}

	// ── Cold distributed submission ──────────────────────────────────
	st := submit(ts.URL, fig7Plan)
	fmt.Printf("submitted %s (%d jobs) to the coordinator\n", st.Hash, len(plan.Jobs))
	st = await(ts.URL, st.Hash)
	fmt.Printf("fleet done: leased %d grants, ingested %d rows, %d store hits\n",
		st.Leased, st.Ingested, st.StoreHits)

	doc := fetchDoc(ts.URL, st.Hash)
	fmt.Printf("distributed document: %d bytes, identical to single process: %v\n\n",
		len(doc), bytes.Equal(doc, []byte(reference)))

	// ── Worker failure mid-sweep ─────────────────────────────────────
	// Drain one worker while a bigger plan runs. Its released lease
	// requeues immediately (a kill -9 takes the lease-TTL path instead);
	// the survivor finishes the sweep and the document is still exact.
	bigger := `{"generator": "fig7", "params": {"arch": "toy", "kmax": 40}}`
	st = submit(ts.URL, bigger)
	time.Sleep(50 * time.Millisecond) // let leases go out
	cancels[0]()
	fmt.Println("worker w1 drained mid-sweep")
	st = await(ts.URL, st.Hash)
	fmt.Printf("survivor finished: ingested %d rows, %d jobs requeued after the drain\n\n",
		st.Ingested, st.Requeued)

	// ── Store sync by hash delta ─────────────────────────────────────
	// PullStore fetches exactly the rows the local store is missing —
	// the laptop ends up with the cluster's sweep without re-simulating.
	// `rrbus-store pull results/ http://host:8077` is this call.
	rep, err := rrbus.PullStore(ctx, localStore, ts.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pull: %d local / %d remote rows, transferred the %d-row delta\n",
		rep.LocalRows, rep.RemoteRows, rep.Transferred)
	// A second pull has nothing left to move: the diff is by content
	// hash, so sync is idempotent.
	rep, err = rrbus.PullStore(ctx, localStore, ts.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pull again: %d rows transferred (already in sync)\n\n", rep.Transferred)

	// PushStore is the reverse: seed a fresh coordinator from a warm
	// cache so the fleet only ever simulates genuinely new work. Rows
	// are checksum-verified on ingest — a corrupted transfer is refused,
	// never recorded.
	fresh := rrbus.NewMemStore()
	freshServer := rrbus.NewServer(fresh, rrbus.ServeOptions{Distribute: true})
	ts2 := httptest.NewServer(freshServer)
	defer ts2.Close()
	rep, err = rrbus.PushStore(ctx, localStore, ts2.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("push into a fresh coordinator: %d rows transferred\n", rep.Transferred)
	// The pushed rows satisfy queued work directly: resubmitting the
	// sweep completes with zero leases — no worker even attached.
	st = submit(ts2.URL, fig7Plan)
	st = await(ts2.URL, st.Hash)
	fmt.Printf("warm plan on the fresh coordinator: %d simulated, %d store hits, %d leased\n\n",
		st.Simulated, st.StoreHits, st.Leased)
	freshServer.Drain()

	// ── Drain ────────────────────────────────────────────────────────
	cancelFleet()
	fleet.Wait()
	for _, w := range workers {
		sum := w.Summary()
		fmt.Printf("worker summary: %d leases, %d rows shipped, %d simulated locally\n",
			sum.Leases, sum.Shipped, sum.Simulated)
	}
	sum := server.Drain()
	fmt.Printf("coordinator summary: %d leased, %d ingested, %d requeued\n",
		sum.Leased, sum.Ingested, sum.Requeued)
}

// submit POSTs a plan and decodes the 202 status body.
func submit(base, body string) rrbus.PlanStatus {
	resp, err := http.Post(base+"/v1/plans", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st rrbus.PlanStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st
}

// await polls the status endpoint until the plan completes.
func await(base, hash string) rrbus.PlanStatus {
	for {
		resp, err := http.Get(base + "/v1/plans/" + hash)
		if err != nil {
			log.Fatal(err)
		}
		var st rrbus.PlanStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		switch st.Status {
		case rrbus.PlanComplete:
			return st
		case rrbus.PlanFailed, rrbus.PlanInterrupted:
			log.Fatalf("plan %s: %s (%s)", hash, st.Status, st.Err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fetchDoc retrieves the rendered text document.
func fetchDoc(base, hash string) []byte {
	resp, err := http.Get(base + "/v1/plans/" + hash + "/doc?format=text")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("doc: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}
