// Serve walkthrough: the bound-as-a-service HTTP daemon end to end —
// start an rrbus.Server over a content-addressed store, submit a plan
// cold (every job simulates), poll its status to completion, fetch the
// rendered document, resubmit it warm (zero simulations), watch a
// second overlapping plan simulate only its delta, scrape the
// Prometheus metrics, and drain gracefully.
//
// Every step prints the curl equivalent: the example is the HTTP
// contract cmd/rrbus-serve exposes, driven in-process.
//
// Run with:
//
//	go run ./examples/serve
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rrbus"
)

const (
	// The same JSON a scenario file holds: fig7 is the paper's central
	// rsk-nop slowdown sweep, derive the §4.2 bound derivation. At the
	// default protocol their k-sweep jobs are content-identical, so
	// derive over a fig7-warmed store simulates only its δnop
	// calibration job.
	fig7Plan   = `{"generator": "fig7", "params": {"arch": "toy", "kmax": 10}}`
	derivePlan = `{"generator": "derive", "params": {"arch": "toy", "kmax": 10}}`
)

func main() {
	dir := filepath.Join(os.TempDir(), "rrbus-serve-example")
	defer os.RemoveAll(dir)
	store, err := rrbus.OpenDirStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// The server is just an http.Handler over the store; cmd/rrbus-serve
	// mounts the same thing on a real listener:
	//
	//	rrbus-serve -store results/ -addr :8077
	server := rrbus.NewServer(store, rrbus.ServeOptions{Retry: rrbus.DefaultRetry})
	ts := httptest.NewServer(server)
	defer ts.Close()

	// 1. Cold submission. The server compiles the plan, diffs its job
	// hashes against the store — empty, so everything is missing — and
	// queues the missing jobs for its in-process workers.
	//
	//	curl -d @fig7.json localhost:8077/v1/plans
	st := submit(ts.URL, fig7Plan)
	fmt.Printf("submitted %s (%d jobs): %s\n", st.Hash, st.Jobs, st.Status)

	// 2. Poll until complete.
	//
	//	curl localhost:8077/v1/plans/<hash>
	st = poll(ts.URL, st.Hash)
	fmt.Printf("cold run:   %s, %d simulated, %d served from store\n",
		st.Status, st.Simulated, st.StoreHits)

	// 3. Fetch the document — byte-identical to what
	// `rrbus-figures -scenario fig7.json -store results/` prints.
	//
	//	curl localhost:8077/v1/plans/<hash>/doc?format=text
	doc := get(ts.URL + "/v1/plans/" + st.Hash + "/doc?format=text")
	fmt.Printf("document:   %d bytes, first line %q\n", len(doc), firstLine(doc))

	// 4. Warm resubmission: every row is recorded now, so the re-run is
	// an all-hits pass that revalidates the rows without simulating.
	submit(ts.URL, fig7Plan)
	st = poll(ts.URL, st.Hash)
	fmt.Printf("warm rerun: %s, %d simulated, %d served from store\n",
		st.Status, st.Simulated, st.StoreHits)

	// 5. An overlapping plan simulates only its delta: derive's k-sweep
	// rows are already recorded under fig7's hashes.
	st = submit(ts.URL, derivePlan)
	st = poll(ts.URL, st.Hash)
	fmt.Printf("overlap:    %s, %d simulated, %d served from store\n",
		st.Status, st.Simulated, st.StoreHits)

	// 6. The same counters, as a Prometheus scrape.
	//
	//	curl localhost:8077/metrics
	for _, line := range strings.Split(get(ts.URL+"/metrics"), "\n") {
		if strings.HasPrefix(line, "rrbus_jobs_") || strings.HasPrefix(line, "rrbus_plans_submitted") {
			fmt.Println("metrics:   ", line)
		}
	}

	// 7. Drain: in a daemon this is the first SIGINT — queued plans are
	// marked interrupted, in-flight jobs finish and stay recorded, and
	// the summed counters come back for the exit report.
	sum := server.Drain()
	fmt.Printf("drained:    %d plans (%d interrupted), %d simulated, %d hits\n",
		sum.Plans, sum.Interrupted, sum.Simulated, sum.StoreHits)
}

// submit POSTs a plan body and decodes the accepted status.
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

// poll waits for the plan to leave the queue and finish its run.
func poll(base, hash string) rrbus.PlanStatus {
	for {
		resp, err := http.Get(base + "/v1/plans/" + hash)
		if err != nil {
			log.Fatal(err)
		}
		var st rrbus.PlanStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		switch st.Status {
		case rrbus.PlanComplete, rrbus.PlanFailed, rrbus.PlanInterrupted:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
