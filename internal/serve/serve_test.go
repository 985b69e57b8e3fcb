package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rrbus/internal/exp"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/serve"
	"rrbus/internal/store"
)

// Small fast plans for the happy paths (iters 5 shrinks simulation), and
// the default-protocol pair whose job lists overlap — fig7's k-sweep rows
// are content-identical to derive's, so derive over a fig7-warmed store
// must simulate only the δnop calibration job.
const (
	fig7Body    = `{"generator": "fig7", "params": {"arch": "toy", "kmax": 5, "iters": 5}}`
	fig7Overlap = `{"generator": "fig7", "params": {"arch": "toy", "kmax": 6}}`
	deriveBody  = `{"generator": "derive", "params": {"arch": "toy", "kmax": 6}}`
)

// compileBody compiles a plan exactly the way the submit handler does —
// through the JSON decoder — so test-side hashes match server-side ones
// even where JSON numbers decode differently than Go literals.
func compileBody(t *testing.T, body string) *scenario.Compiled {
	t.Helper()
	var spec scenario.Plan
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cliRender reproduces the rrbus-figures render path for a plan —
// DocumentFor plus the fallback heading for renderer-less generators —
// the bytes the doc endpoint must match exactly.
func cliRender(t *testing.T, c *scenario.Compiled, results []scenario.Result, format string) []byte {
	t.Helper()
	doc, err := report.DocumentFor(c.Generator(), c.Jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Title == "" {
		doc.Title = c.Name()
	}
	if _, ok := report.For(c.Generator()); !ok {
		doc.Prepend(report.Heading{Level: 1, Text: fmt.Sprintf("scenario %s: %d jobs", c.Name(), len(c.Jobs))})
	}
	backend, err := report.BackendFor(format)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.RenderTo(&buf, doc, backend); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runCLI simulates the plan in-process over a throwaway store — the
// reference results a byte-identity assertion renders against.
func runCLI(t *testing.T, c *scenario.Compiled) []scenario.Result {
	t.Helper()
	sess := &store.Session{Store: store.NewMem()}
	results, err := sess.RunAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func postPlan(t *testing.T, base, body string) (serve.PlanStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/plans", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.PlanStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return st, resp
}

func getStatus(t *testing.T, base, hash string) (serve.PlanStatus, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/plans/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.PlanStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st, resp.StatusCode
}

// waitStatus polls the status endpoint until the plan reaches a terminal
// state (complete, failed, interrupted) and returns the final snapshot.
func waitStatus(t *testing.T, base, hash string) serve.PlanStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, code := getStatus(t, base, hash)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", hash, code)
		}
		switch st.Status {
		case serve.StatusComplete, serve.StatusFailed, serve.StatusInterrupted:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan %s stuck in %q", hash, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getDoc(t *testing.T, base, hash, format string) ([]byte, *http.Response) {
	t.Helper()
	url := base + "/v1/plans/" + hash + "/doc"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp
}

// scrapeMetrics fetches /metrics and returns the sample value of each
// metric name (last sample wins; the exposition here has one per name).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, raw, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		vals[name] = v
	}
	return vals
}

// TestServeColdWarmDoc is the core contract: a cold submission simulates
// every job, a warm resubmission simulates none, and the document both
// serve is byte-identical to the CLI render of the same plan.
func TestServeColdWarmDoc(t *testing.T) {
	st, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(st, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	c := compileBody(t, fig7Body)
	jobs := len(c.Jobs)

	sub, resp := postPlan(t, ts.URL, fig7Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/plans/"+c.Hash() {
		t.Fatalf("Location = %q, want /v1/plans/%s", loc, c.Hash())
	}
	if sub.Hash != c.Hash() {
		t.Fatalf("submit hash = %s, want %s", sub.Hash, c.Hash())
	}

	cold := waitStatus(t, ts.URL, c.Hash())
	if cold.Status != serve.StatusComplete {
		t.Fatalf("cold run ended %q (err %q)", cold.Status, cold.Err)
	}
	if cold.Simulated != int64(jobs) || cold.StoreHits != 0 {
		t.Fatalf("cold run simulated=%d hits=%d, want %d/0", cold.Simulated, cold.StoreHits, jobs)
	}
	if cold.QueueDepth != 0 || cold.InFlight != 0 {
		t.Fatalf("finished run reports queue=%d inflight=%d", cold.QueueDepth, cold.InFlight)
	}
	if cold.Jobs != jobs || cold.Present != jobs {
		t.Fatalf("cold run jobs=%d present=%d, want %d/%d", cold.Jobs, cold.Present, jobs, jobs)
	}

	// The document must match the CLI render byte for byte, in every
	// backend, cold and warm alike.
	ref := runCLI(t, c)
	for _, format := range []string{"", "text", "json", "html"} {
		want := cliRender(t, c, ref, format)
		got, resp := getDoc(t, ts.URL, c.Hash(), format)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("doc format=%q: HTTP %d: %s", format, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("doc format=%q differs from CLI render:\nserver:\n%s\ncli:\n%s", format, got, want)
		}
	}

	// The plan content hash is the ETag: a conditional re-fetch is 304.
	_, docResp := getDoc(t, ts.URL, c.Hash(), "text")
	etag := docResp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("doc response has no ETag")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/plans/"+c.Hash()+"/doc?format=text", nil)
	req.Header.Set("If-None-Match", etag)
	condResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	condResp.Body.Close()
	if condResp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional doc fetch: HTTP %d, want 304", condResp.StatusCode)
	}

	// Warm resubmission: the same plan again is an all-hits pass.
	postPlan(t, ts.URL, fig7Body)
	warm := waitStatus(t, ts.URL, c.Hash())
	if warm.Status != serve.StatusComplete {
		t.Fatalf("warm run ended %q (err %q)", warm.Status, warm.Err)
	}
	if warm.Simulated != 0 || warm.StoreHits != int64(jobs) {
		t.Fatalf("warm run simulated=%d hits=%d, want 0/%d", warm.Simulated, warm.StoreHits, jobs)
	}
	got, _ := getDoc(t, ts.URL, c.Hash(), "text")
	if !bytes.Equal(got, cliRender(t, c, ref, "text")) {
		t.Fatal("warm doc differs from cold doc")
	}

	// The submission list knows the plan; unknown hashes and formats are
	// clean client errors.
	listResp, err := http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var list []serve.PlanStatus
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list) != 1 || list[0].Hash != c.Hash() {
		t.Fatalf("plan list = %+v, want the one submitted plan", list)
	}
	if _, code := getStatus(t, ts.URL, "deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown plan status: HTTP %d, want 404", code)
	}
	if _, resp := getDoc(t, ts.URL, c.Hash(), "yaml"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: HTTP %d, want 400", resp.StatusCode)
	}
	badResp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(`{"nope": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad plan body: HTTP %d, want 400", badResp.StatusCode)
	}
}

// TestServeWarmFromManifest pins the shared-store story: a plan some CLI
// recorded (never submitted over HTTP) is visible through the status
// endpoint and renders from the store with zero simulation.
func TestServeWarmFromManifest(t *testing.T) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := compileBody(t, fig7Body)
	sess := &store.Session{Store: dir}
	ref, err := sess.RunAll(c)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.New(dir, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	st, code := getStatus(t, ts.URL, c.Hash())
	if code != http.StatusOK || st.Status != serve.StatusComplete {
		t.Fatalf("manifest status: HTTP %d status %q, want 200 complete", code, st.Status)
	}
	got, resp := getDoc(t, ts.URL, c.Hash(), "json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest doc: HTTP %d: %s", resp.StatusCode, got)
	}
	if want := cliRender(t, c, ref, "json"); !bytes.Equal(got, want) {
		t.Fatalf("manifest doc differs from CLI render:\n%s\nvs\n%s", got, want)
	}
	// No session ever ran: serving the warm plan simulated nothing.
	vals := scrapeMetrics(t, ts.URL)
	if vals["rrbus_jobs_simulated_total"] != 0 || vals["rrbus_plans_submitted_total"] != 0 {
		t.Fatalf("warm serving simulated %v jobs across %v submissions, want 0/0",
			vals["rrbus_jobs_simulated_total"], vals["rrbus_plans_submitted_total"])
	}

	// A manifest whose rows are not recorded yet is reported partial and
	// its document is a 409 pointing at the submit endpoint.
	c2 := compileBody(t, fig7Overlap)
	if err := dir.PutPlan(c2); err != nil {
		t.Fatal(err)
	}
	st2, _ := getStatus(t, ts.URL, c2.Hash())
	if st2.Status != serve.StatusPartial {
		t.Fatalf("unrecorded manifest status %q, want partial", st2.Status)
	}
	if _, resp := getDoc(t, ts.URL, c2.Hash(), ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("unrecorded manifest doc: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestServeOverlapDelta submits two overlapping plans in sequence: the
// second simulates exactly the job hashes the first did not record.
func TestServeOverlapDelta(t *testing.T) {
	st, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(st, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	fig := compileBody(t, fig7Overlap)
	der := compileBody(t, deriveBody)
	figHashes := map[string]bool{}
	for _, h := range fig.JobHashes() {
		figHashes[h] = true
	}
	delta := 0
	for _, h := range der.JobHashes() {
		if !figHashes[h] {
			delta++
		}
	}
	if delta == 0 || delta == len(der.Jobs) {
		t.Fatalf("plans must partially overlap: delta %d of %d jobs", delta, len(der.Jobs))
	}

	postPlan(t, ts.URL, fig7Overlap)
	first := waitStatus(t, ts.URL, fig.Hash())
	if first.Status != serve.StatusComplete || first.Simulated != int64(len(fig.Jobs)) {
		t.Fatalf("first plan: %q simulated=%d, want complete %d", first.Status, first.Simulated, len(fig.Jobs))
	}

	postPlan(t, ts.URL, deriveBody)
	second := waitStatus(t, ts.URL, der.Hash())
	if second.Status != serve.StatusComplete {
		t.Fatalf("second plan ended %q (err %q)", second.Status, second.Err)
	}
	if second.Simulated != int64(delta) || second.StoreHits != int64(len(der.Jobs)-delta) {
		t.Fatalf("overlap run simulated=%d hits=%d, want %d/%d",
			second.Simulated, second.StoreHits, delta, len(der.Jobs)-delta)
	}
}

// TestServeConcurrentOverlap is the at-most-once guarantee under
// concurrency: overlapping plans submitted together — with duplicate
// submissions thrown in — simulate each missing job hash exactly once
// across all sessions.
func TestServeConcurrentOverlap(t *testing.T) {
	// The engine worker budget defaults to GOMAXPROCS; pin it so the two
	// sessions genuinely interleave even on a single-CPU runner.
	exp.SetWorkers(4)
	defer exp.SetWorkers(0)

	st, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(st, serve.Options{Workers: 2, MaxActivePlans: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	fig := compileBody(t, fig7Overlap)
	der := compileBody(t, deriveBody)
	union := map[string]bool{}
	for _, h := range fig.JobHashes() {
		union[h] = true
	}
	for _, h := range der.JobHashes() {
		union[h] = true
	}

	done := make(chan struct{})
	for _, body := range []string{fig7Overlap, deriveBody, fig7Overlap, deriveBody} {
		go func(b string) {
			defer func() { done <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(b))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(body)
	}
	for range 4 {
		<-done
	}

	figSt := waitStatus(t, ts.URL, fig.Hash())
	derSt := waitStatus(t, ts.URL, der.Hash())
	if figSt.Status != serve.StatusComplete || derSt.Status != serve.StatusComplete {
		t.Fatalf("runs ended %q/%q (%q/%q)", figSt.Status, derSt.Status, figSt.Err, derSt.Err)
	}
	// A duplicate landing after its twin completed re-runs warm, so the
	// per-plan statuses report the latest run; the server-wide totals
	// (folded + live) carry the at-most-once guarantee: across every
	// session the server ran, each hash in the union simulated once.
	vals := scrapeMetrics(t, ts.URL)
	if vals["rrbus_jobs_simulated_total"] != float64(len(union)) {
		t.Fatalf("metrics simulated_total = %v, want exactly the %d-hash union", vals["rrbus_jobs_simulated_total"], len(union))
	}
	if vals["rrbus_plans_submitted_total"] != 4 {
		t.Fatalf("metrics submitted_total = %v, want 4", vals["rrbus_plans_submitted_total"])
	}
}

// TestServeMetrics checks the exposition matches the status endpoints'
// numbers — both read the same Session counters.
func TestServeMetrics(t *testing.T) {
	st, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(st, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	c := compileBody(t, fig7Body)
	postPlan(t, ts.URL, fig7Body)
	waitStatus(t, ts.URL, c.Hash())
	postPlan(t, ts.URL, fig7Body) // warm re-run folds the first session's counters
	final := waitStatus(t, ts.URL, c.Hash())

	vals := scrapeMetrics(t, ts.URL)
	jobs := float64(len(c.Jobs))
	checks := map[string]float64{
		"rrbus_plans_submitted_total": 2,
		"rrbus_plans_completed_total": 2,
		"rrbus_plans_failed_total":    0,
		"rrbus_jobs_simulated_total":  jobs, // cold run only; the warm run is all hits
		"rrbus_jobs_store_hits_total": jobs,
		"rrbus_queue_depth":           0,
		"rrbus_jobs_inflight":         0,
		"rrbus_sessions_inflight":     0,
	}
	for name, want := range checks {
		got, ok := vals[name]
		if !ok {
			t.Fatalf("metric %s missing from scrape", name)
		}
		if got != want {
			t.Errorf("metric %s = %v, want %v", name, got, want)
		}
	}
	if final.Simulated != 0 || final.StoreHits != float64ToInt64(checks["rrbus_jobs_store_hits_total"]) {
		t.Fatalf("status after warm run: simulated=%d hits=%d", final.Simulated, final.StoreHits)
	}
	for _, name := range []string{"rrbus_sim_cycles_total", "rrbus_sim_steps_total", "rrbus_uptime_seconds"} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("metric %s missing from scrape", name)
		}
	}
}

func float64ToInt64(v float64) int64 { return int64(v) }

// TestServeFaulty submits against a fault-injecting store: transient
// errors drive the retry counter, injected corruption drives quarantine
// and repair — and the documents stay byte-identical throughout.
func TestServeFaulty(t *testing.T) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := &store.Faulty{Under: dir, EveryGet: 5, EveryCorrupt: 3}
	srv := serve.New(faulty, serve.Options{
		Retry: store.RetryPolicy{Max: 3, BaseDelay: time.Millisecond},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	c := compileBody(t, fig7Body)
	want := cliRender(t, c, runCLI(t, c), "text")

	postPlan(t, ts.URL, fig7Body)
	cold := waitStatus(t, ts.URL, c.Hash())
	if cold.Status != serve.StatusComplete {
		t.Fatalf("cold faulty run ended %q (err %q)", cold.Status, cold.Err)
	}
	got, _ := getDoc(t, ts.URL, c.Hash(), "text")
	if !bytes.Equal(got, want) {
		t.Fatalf("faulty cold doc differs from clean render:\n%s", got)
	}

	// Warm re-run over injected corruption: corrupt rows are quarantined,
	// re-simulated and re-recorded — the self-healing counters move while
	// the response bytes do not.
	postPlan(t, ts.URL, fig7Body)
	warm := waitStatus(t, ts.URL, c.Hash())
	if warm.Status != serve.StatusComplete {
		t.Fatalf("warm faulty run ended %q (err %q)", warm.Status, warm.Err)
	}
	if warm.Quarantined == 0 || warm.Repaired == 0 {
		t.Fatalf("warm faulty run quarantined=%d repaired=%d, want both > 0", warm.Quarantined, warm.Repaired)
	}
	vals := scrapeMetrics(t, ts.URL)
	if vals["rrbus_store_retries_total"] == 0 {
		t.Fatal("no retries recorded against an EveryGet-faulty store")
	}
	if vals["rrbus_jobs_quarantined_total"] == 0 || vals["rrbus_jobs_repaired_total"] == 0 {
		t.Fatalf("healing totals quarantined=%v repaired=%v, want both > 0",
			vals["rrbus_jobs_quarantined_total"], vals["rrbus_jobs_repaired_total"])
	}
	got, _ = getDoc(t, ts.URL, c.Hash(), "text")
	if !bytes.Equal(got, want) {
		t.Fatalf("faulty warm doc differs from clean render:\n%s", got)
	}
}

// TestServeFaultyDistributed is TestServeFaulty's retry half in
// distribute mode: with every row warm the coordinator's store diff and
// read-back are the whole run, and both must retry transient errors
// under Options.Retry as a local session does, then report the retries.
func TestServeFaultyDistributed(t *testing.T) {
	c := compileBody(t, fig7Body)
	mem := store.NewMem()
	results, err := (&store.Session{Store: mem}).RunAll(c)
	if err != nil {
		t.Fatal(err)
	}
	want := cliRender(t, c, results, "text")
	srv := serve.New(&store.Faulty{Under: mem, EveryGet: 3}, serve.Options{
		Distribute: true,
		Retry:      store.RetryPolicy{Max: 3, BaseDelay: time.Millisecond},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	postPlan(t, ts.URL, fig7Body)
	st := waitStatus(t, ts.URL, c.Hash())
	if st.Status != serve.StatusComplete {
		t.Fatalf("warm distributed run over a faulty store ended %q (err %q)", st.Status, st.Err)
	}
	if st.Retried == 0 {
		t.Error("no retries reported against an EveryGet-faulty store")
	}
	if st.StoreHits != int64(len(c.Jobs)) || st.Simulated != 0 {
		t.Errorf("warm distributed run: hits=%d simulated=%d, want %d and 0", st.StoreHits, st.Simulated, len(c.Jobs))
	}
	got, _ := getDoc(t, ts.URL, c.Hash(), "text")
	if !bytes.Equal(got, want) {
		t.Fatalf("faulty distributed doc differs from clean render:\n%s", got)
	}
}

// TestServeDrain pins the graceful-shutdown contract: draining skips
// queued plans, interrupts the running one, reports both, and further
// submissions are refused.
func TestServeDrain(t *testing.T) {
	gate := make(chan struct{})
	gated := &gateStore{Store: store.NewMem(), gate: gate}
	srv := serve.New(gated, serve.Options{MaxActivePlans: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fig := compileBody(t, fig7Overlap)
	postPlan(t, ts.URL, fig7Overlap)

	// Wait until the run is genuinely inside the store (blocked on the
	// gate), then pile a second plan into the queue behind it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := getStatus(t, ts.URL, fig.Hash())
		if st.Status == serve.StatusSimulating && st.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached the store (status %q)", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	der := compileBody(t, deriveBody)
	postPlan(t, ts.URL, deriveBody)

	done := make(chan serve.DrainSummary, 1)
	go func() { done <- srv.Drain() }()
	time.Sleep(20 * time.Millisecond)
	close(gate) // release the blocked lookups so the drain can finish
	sum := <-done

	if sum.Plans != 2 || sum.Interrupted != 2 {
		t.Fatalf("drain summary %+v, want 2 plans, both interrupted", sum)
	}
	figSt, _ := getStatus(t, ts.URL, fig.Hash())
	derSt, _ := getStatus(t, ts.URL, der.Hash())
	if figSt.Status != serve.StatusInterrupted || derSt.Status != serve.StatusInterrupted {
		t.Fatalf("post-drain statuses %q/%q, want interrupted/interrupted", figSt.Status, derSt.Status)
	}
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(fig7Body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestServeDocNotReady pins the 409 contract of GET /doc: while a plan
// cannot be rendered, the answer is 409 with the status that made that
// call — queued or simulating, never complete — and once the plan
// completes the same request answers 200.
func TestServeDocNotReady(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.New(&gateStore{Store: store.NewMem(), gate: gate}, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, _ := postPlan(t, ts.URL, fig7Body)
	for i := 0; i < 20; i++ {
		body, resp := getDoc(t, ts.URL, st.Hash, "")
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("doc of a held plan: HTTP %d, want 409", resp.StatusCode)
		}
		var got serve.PlanStatus
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("decode 409 body: %v", err)
		}
		if got.Status != serve.StatusQueued && got.Status != serve.StatusSimulating {
			t.Fatalf("409 body reports status %q", got.Status)
		}
	}
	close(gate)
	if final := waitStatus(t, ts.URL, st.Hash); final.Status != serve.StatusComplete {
		t.Fatalf("plan ended %q, want complete", final.Status)
	}
	if _, resp := getDoc(t, ts.URL, st.Hash, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("doc after completion: HTTP %d, want 200", resp.StatusCode)
	}
}

// gateStore blocks every Get until the gate closes — the serve-side twin
// of the store package's test helper.
type gateStore struct {
	store.Store
	gate chan struct{}
}

func (g *gateStore) Get(h string) (scenario.Result, bool, error) {
	<-g.gate
	return g.Store.Get(h)
}

// TestStorePlansEndpoint pins GET /v1/store/plans to the exact bytes the
// rrbus-store ls builder produces, and the JSON encoding to a lossless
// DecodeDocument round-trip.
func TestStorePlansEndpoint(t *testing.T) {
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := compileBody(t, fig7Body)
	sess := &store.Session{Store: dir}
	if _, err := sess.RunAll(c); err != nil {
		t.Fatal(err)
	}

	srv := serve.New(dir, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	infos, err := dir.PlanInfos()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dir.Len()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"", "text", "json", "html"} {
		backend, err := report.BackendFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := report.RenderTo(&want, serve.PlansDocument(dir.Root(), infos, rows), backend); err != nil {
			t.Fatal(err)
		}
		url := ts.URL + "/v1/store/plans"
		if format != "" {
			url += "?format=" + format
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("store plans format=%q differs from ls builder:\n%s\nvs\n%s", format, got, want.Bytes())
		}
	}

	// The JSON document round-trips losslessly: decode, re-render,
	// byte-identical — the audit CLI and the server agree on the
	// plan-manifest JSON by construction.
	doc := serve.PlansDocument(dir.Root(), infos, rows)
	jsonBackend, err := report.BackendFor("json")
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := report.RenderTo(&first, doc, jsonBackend); err != nil {
		t.Fatal(err)
	}
	decoded, err := report.DecodeDocument(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := report.RenderTo(&second, decoded, jsonBackend); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("plans JSON does not round-trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}
