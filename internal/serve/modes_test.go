package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrbus/internal/dist"
	"rrbus/internal/scenario"
	"rrbus/internal/serve"
	"rrbus/internal/store"
)

// A plan that compiles but fails to simulate: the scua task does not
// exist, which only Scenario.Build finds out.
const bogusBody = `{"name": "bogus", "jobs": [{"id": "bogus", "scenario": {"platform": {"arch": "toy"}, "workload": {"scua": "bogus:load"}}}]}`

// mode is one way to run a server: local (in-process workers) or
// coordinator (one remote worker leasing the jobs).
type mode struct {
	name       string
	distribute bool
}

var modes = []mode{{"local", false}, {"coordinator", true}}

// modeServer is a server under test in one mode, with its remote worker
// when the mode has one.
type modeServer struct {
	srv     *serve.Server
	ts      *httptest.Server
	mode    mode
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	drained bool
}

// startServer serves st in mode m. A coordinator's worker starts with
// startWorker, so a test can enqueue work before anyone takes it.
func startServer(t *testing.T, m mode, st store.Store, opts serve.Options) *modeServer {
	t.Helper()
	opts.Distribute = m.distribute
	ms := &modeServer{srv: serve.New(st, opts), mode: m, cancel: func() {}}
	ms.ts = httptest.NewServer(ms.srv)
	t.Cleanup(func() {
		ms.drain()
		ms.ts.Close()
	})
	return ms
}

func (ms *modeServer) startWorker() {
	if !ms.mode.distribute {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	ms.cancel = cancel
	w := dist.NewWorker(ms.ts.URL, dist.WorkerOptions{Name: "w1", Poll: 5 * time.Millisecond, Workers: 2})
	ms.wg.Add(1)
	go func() { defer ms.wg.Done(); w.Run(ctx) }()
}

// drain stops the remote worker, then drains the server.
func (ms *modeServer) drain() serve.DrainSummary {
	ms.cancel()
	ms.wg.Wait()
	if ms.drained {
		return serve.DrainSummary{}
	}
	ms.drained = true
	return ms.srv.Drain()
}

// countingDir counts the Gets that reach a directory store.
type countingDir struct {
	*store.Dir
	gets atomic.Int64
}

func (c *countingDir) Get(h string) (scenario.Result, bool, error) {
	c.gets.Add(1)
	return c.Dir.Get(h)
}

var counterNames = []string{
	"rrbus_jobs_simulated_total", "rrbus_jobs_store_hits_total",
	"rrbus_jobs_quarantined_total", "rrbus_jobs_repaired_total",
	"rrbus_store_retries_total",
}

func statusCounters(st serve.PlanStatus) []float64 {
	return []float64{float64(st.Simulated), float64(st.StoreHits),
		float64(st.Quarantined), float64(st.Repaired), float64(st.Retried)}
}

func drainCounters(sum serve.DrainSummary) []float64 {
	return []float64{float64(sum.Simulated), float64(sum.StoreHits),
		float64(sum.Quarantined), float64(sum.Repaired), float64(sum.Retried)}
}

// checkScrape asserts that the scrape's job counters equal prev plus the
// latest run's status, and returns the scrape.
func checkScrape(t *testing.T, base string, prev map[string]float64, st serve.PlanStatus) map[string]float64 {
	t.Helper()
	vals := scrapeMetrics(t, base)
	for i, v := range statusCounters(st) {
		name := counterNames[i]
		if vals[name] != prev[name]+v {
			t.Errorf("%s = %v, want %v + the status's %v", name, vals[name], prev[name], v)
		}
	}
	return vals
}

// checkDrain asserts that the drain summary equals the final scrape.
func checkDrain(t *testing.T, ms *modeServer, scrape map[string]float64) {
	t.Helper()
	for i, v := range drainCounters(ms.drain()) {
		if v != scrape[counterNames[i]] {
			t.Errorf("drain summary %s = %v, final scrape %v", counterNames[i], v, scrape[counterNames[i]])
		}
	}
}

// checkDocs asserts the plan's documents equal the CLI render in every
// backend.
func checkDocs(t *testing.T, base string, c *scenario.Compiled, ref []scenario.Result) {
	t.Helper()
	for _, format := range []string{"text", "json", "html"} {
		got, resp := getDoc(t, base, c.Hash(), format)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("doc format=%s: HTTP %d: %s", format, resp.StatusCode, got)
		}
		if want := cliRender(t, c, ref, format); !bytes.Equal(got, want) {
			t.Fatalf("doc format=%s differs from the CLI render:\n%s\nvs\n%s", format, got, want)
		}
	}
}

// TestServeModes is one contract for both ways a server runs plans —
// in-process workers, or a coordinator with a remote worker — through a
// cold and a warm run, concurrent overlapping submissions and a faulty
// store. In every phase the documents equal the CLI render, and the
// status, the scrape and the drain summary report the same counters.
func TestServeModes(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			t.Run("cold-warm", func(t *testing.T) { testColdWarm(t, m) })
			t.Run("overlap", func(t *testing.T) { testOverlap(t, m) })
			t.Run("faulty", func(t *testing.T) { testFaulty(t, m) })
		})
	}
}

// testColdWarm: a cold run simulates every job, a warm one none, and the
// warm run reads each row exactly once.
func testColdWarm(t *testing.T, m mode) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &countingDir{Dir: dir}
	ms := startServer(t, m, st, serve.Options{})
	ms.startWorker()
	c := compileBody(t, fig7Body)
	jobs := int64(len(c.Jobs))
	ref := runCLI(t, c)

	postPlan(t, ms.ts.URL, fig7Body)
	cold := waitStatus(t, ms.ts.URL, c.Hash())
	if cold.Status != serve.StatusComplete || cold.Simulated != jobs || cold.StoreHits != 0 {
		t.Fatalf("cold run %q simulated=%d hits=%d (err %q), want complete %d/0", cold.Status, cold.Simulated, cold.StoreHits, cold.Err, jobs)
	}
	checkDocs(t, ms.ts.URL, c, ref)
	scrape := checkScrape(t, ms.ts.URL, map[string]float64{}, cold)

	gets := st.gets.Load()
	postPlan(t, ms.ts.URL, fig7Body)
	warm := waitStatus(t, ms.ts.URL, c.Hash())
	if warm.Status != serve.StatusComplete || warm.Simulated != 0 || warm.StoreHits != jobs {
		t.Fatalf("warm run %q simulated=%d hits=%d, want complete 0/%d", warm.Status, warm.Simulated, warm.StoreHits, jobs)
	}
	if n := st.gets.Load() - gets; n != jobs {
		t.Errorf("warm run read the store %d times, want one Get per job (%d)", n, jobs)
	}
	checkDocs(t, ms.ts.URL, c, ref)
	checkDrain(t, ms, checkScrape(t, ms.ts.URL, scrape, warm))
}

// testOverlap: two overlapping plans, each submitted twice at once,
// simulate the union of their job hashes once. A coordinator's worker
// starts only once all the work is queued, so both plans wait on the
// shared jobs.
func testOverlap(t *testing.T, m mode) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ms := startServer(t, m, dir, serve.Options{Workers: 2, MaxActivePlans: 4})
	fig, der := compileBody(t, fig7Overlap), compileBody(t, deriveBody)
	union := map[string]bool{}
	for _, c := range []*scenario.Compiled{fig, der} {
		for _, h := range c.JobHashes() {
			union[h] = true
		}
	}

	var wg sync.WaitGroup
	for _, body := range []string{fig7Overlap, deriveBody, fig7Overlap, deriveBody} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ms.ts.URL+"/v1/plans", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if m.distribute {
		deadline := time.Now().Add(30 * time.Second)
		for scrapeMetrics(t, ms.ts.URL)["rrbus_dist_pending_jobs"] != float64(len(union)) {
			if time.Now().After(deadline) {
				t.Fatalf("the queue never held the %d-hash union", len(union))
			}
			time.Sleep(5 * time.Millisecond)
		}
		ms.startWorker()
	}
	for _, c := range []*scenario.Compiled{fig, der} {
		if st := waitStatus(t, ms.ts.URL, c.Hash()); st.Status != serve.StatusComplete {
			t.Fatalf("plan %s ended %q (err %q)", c.Name(), st.Status, st.Err)
		}
		checkDocs(t, ms.ts.URL, c, runCLI(t, c))
	}
	scrape := scrapeMetrics(t, ms.ts.URL)
	if got := scrape["rrbus_jobs_simulated_total"]; got != float64(len(union)) {
		t.Errorf("rrbus_jobs_simulated_total = %v, want the %d-hash union", got, len(union))
	}
	checkDrain(t, ms, scrape)
}

// testFaulty: transient store errors retry and injected corruption is
// quarantined and repaired, with the documents unchanged.
func testFaulty(t *testing.T, m mode) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := &store.Faulty{Under: dir, EveryGet: 5, EveryCorrupt: 3}
	ms := startServer(t, m, faulty, serve.Options{Retry: store.RetryPolicy{Max: 3, BaseDelay: time.Millisecond}})
	ms.startWorker()
	c := compileBody(t, fig7Body)
	ref := runCLI(t, c)

	postPlan(t, ms.ts.URL, fig7Body)
	cold := waitStatus(t, ms.ts.URL, c.Hash())
	if cold.Status != serve.StatusComplete {
		t.Fatalf("cold faulty run ended %q (err %q)", cold.Status, cold.Err)
	}
	checkDocs(t, ms.ts.URL, c, ref)
	scrape := checkScrape(t, ms.ts.URL, map[string]float64{}, cold)

	postPlan(t, ms.ts.URL, fig7Body)
	warm := waitStatus(t, ms.ts.URL, c.Hash())
	if warm.Status != serve.StatusComplete {
		t.Fatalf("warm faulty run ended %q (err %q)", warm.Status, warm.Err)
	}
	if warm.Quarantined == 0 || warm.Repaired != warm.Quarantined || warm.Retried == 0 {
		t.Errorf("warm faulty run quarantined=%d repaired=%d retried=%d, want every quarantined entry repaired and retries",
			warm.Quarantined, warm.Repaired, warm.Retried)
	}
	checkDocs(t, ms.ts.URL, c, ref)
	checkDrain(t, ms, checkScrape(t, ms.ts.URL, scrape, warm))
}

// flakyPlans is a directory store whose first PutPlan fails with a
// transient error, as a manifest write on a flaky filesystem would.
type flakyPlans struct {
	*store.Dir
	putPlans atomic.Int64
}

func (f *flakyPlans) PutPlan(c *scenario.Compiled) error {
	if f.putPlans.Add(1) == 1 {
		return store.Transient(store.ErrInjected)
	}
	return f.Dir.PutPlan(c)
}

// TestServeRetriesPutPlan: in both modes a transient failure to record
// a plan's manifest retries under Options.Retry, like the plan's store
// reads, and the retry shows in the plan's counters.
func TestServeRetriesPutPlan(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			d, err := store.OpenDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st := &flakyPlans{Dir: d}
			ms := startServer(t, m, st, serve.Options{Retry: store.RetryPolicy{Max: 2, BaseDelay: time.Millisecond}})
			ms.startWorker()
			c := compileBody(t, fig7Body)
			postPlan(t, ms.ts.URL, fig7Body)
			got := waitStatus(t, ms.ts.URL, c.Hash())
			if got.Status != serve.StatusComplete {
				t.Fatalf("run ended %q (err %q) on a transient manifest-write error", got.Status, got.Err)
			}
			if n := st.putPlans.Load(); n != 2 || got.Retried != 1 {
				t.Errorf("%d PutPlan calls and %d retries, want 2 and 1", n, got.Retried)
			}
			if plans, err := d.Plans(); err != nil || len(plans) != 1 || plans[0] != c.Hash() {
				t.Errorf("recorded plans %v (err %v), want the run's plan", plans, err)
			}
			checkDocs(t, ms.ts.URL, c, runCLI(t, c))
		})
	}
}

// TestServeFailingJob: a job that fails to simulate fails its plan with
// the simulation error, in both modes, instead of being retried forever.
func TestServeFailingJob(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ms := startServer(t, m, store.NewMem(), serve.Options{})
			ms.startWorker()
			sub, _ := postPlan(t, ms.ts.URL, bogusBody)
			deadline := time.Now().Add(5 * time.Second)
			for {
				st, _ := getStatus(t, ms.ts.URL, sub.Hash)
				if st.Status == serve.StatusFailed {
					if !strings.Contains(st.Err, "unknown task") {
						t.Fatalf("plan failed with %q, want the unknown-task error", st.Err)
					}
					break
				}
				if st.Status != serve.StatusQueued && st.Status != serve.StatusSimulating || time.Now().After(deadline) {
					t.Fatalf("plan reads %q (leased %d, requeued %d), want failed within 5s", st.Status, st.Leased, st.Requeued)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if sum := ms.drain(); sum.Interrupted != 0 {
				t.Fatalf("drain summary %+v, want nothing interrupted", sum)
			}
		})
	}
}
