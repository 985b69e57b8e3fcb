package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"rrbus/internal/dist"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// specsFor fabricates job specs for the queue tests. The queue treats
// the hash as an opaque key (workers are the ones that verify job
// content against it), so synthetic hashes keep these tests fast.
func specsFor(hashes ...string) []dist.JobSpec {
	out := make([]dist.JobSpec, len(hashes))
	for i, h := range hashes {
		out[i] = dist.JobSpec{Hash: h, Job: scenario.Job{ID: "job-" + h}}
	}
	return out
}

// wireFor packages a distinct row for a hash, exactly as a worker would.
func wireFor(t *testing.T, hash string, cycles uint64) dist.ResultRow {
	t.Helper()
	row, err := dist.WireRow(hash, scenario.Result{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// waitDone asserts a plan's Wait completes promptly.
func waitDone(t *testing.T, q *dist.Queue, plan string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Wait(ctx, plan); err != nil {
		t.Fatalf("Wait(%s): %v", plan, err)
	}
}

// TestQueueLeaseIngestWait walks the happy path: enqueue, lease in
// batches, deliver rows, and the plan's Wait completes with every
// counter accounted for.
func TestQueueLeaseIngestWait(t *testing.T) {
	mem := store.NewMem()
	q := dist.NewQueue(mem, dist.QueueOptions{MaxBatch: 2})
	hashes := []string{"h1", "h2", "h3", "h4", "h5"}
	q.Enqueue("plan", specsFor(hashes...))

	done := make(chan error, 1)
	go func() { done <- q.Wait(context.Background(), "plan") }()
	select {
	case err := <-done:
		t.Fatalf("Wait returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	var leased int
	for {
		l := q.Lease("w1", 0)
		if l.ID == "" {
			break
		}
		if len(l.Jobs) > 2 {
			t.Fatalf("lease of %d jobs exceeds the batch cap 2", len(l.Jobs))
		}
		leased += len(l.Jobs)
		rows := make([]dist.ResultRow, len(l.Jobs))
		for i, sp := range l.Jobs {
			rows[i] = wireFor(t, sp.Hash, uint64(i+1))
		}
		resp := q.Ingest(dist.IngestRequest{Worker: "w1", Lease: l.ID, Rows: rows, Renew: true})
		if resp.Ingested != len(rows) || resp.Rejected != 0 || resp.Duplicate != 0 {
			t.Fatalf("ingest = %+v, want %d ingested", resp, len(rows))
		}
		if !resp.Done {
			t.Fatalf("lease %s not done after delivering all its rows", l.ID)
		}
	}
	if leased != len(hashes) {
		t.Fatalf("leased %d jobs total, want %d", leased, len(hashes))
	}
	if err := <-done; err != nil {
		t.Fatalf("Wait: %v", err)
	}

	c := q.Counters()
	if c.Leased != 5 || c.Ingested != 5 || c.Requeued != 0 || c.Rejected != 0 {
		t.Fatalf("counters %+v, want 5 leased / 5 ingested", c)
	}
	pc := q.PlanCounters("plan")
	if pc.Leased != 5 || pc.Ingested != 5 {
		t.Fatalf("plan counters %+v, want 5/5", pc)
	}
	g := q.Gauges()
	if g.Pending != 0 || g.Leased != 0 || g.Leases != 0 {
		t.Fatalf("gauges %+v, want all zero after completion", g)
	}
	if n := mem.Len(); n != len(hashes) {
		t.Fatalf("store holds %d rows, want %d", n, len(hashes))
	}

	// A plan nobody enqueued is an explicit error, not a silent hang.
	if err := q.Wait(context.Background(), "ghost"); err == nil {
		t.Fatal("Wait on an unknown plan succeeded")
	}
	// An empty-missing plan completes immediately.
	q.Enqueue("warm", nil)
	waitDone(t, q, "warm")
}

// TestQueueExpiryRequeues pins the crash-recovery contract: a lease
// whose deadline passes without renewal returns its jobs to the queue,
// and a late delivery from the dead lease is still absorbed (idempotent
// at-least-once, never lost work).
func TestQueueExpiryRequeues(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{LeaseTTL: 10 * time.Second, Now: clock})
	q.Enqueue("plan", specsFor("h1", "h2"))

	l1 := q.Lease("w1", 0)
	if len(l1.Jobs) != 2 {
		t.Fatalf("first lease got %d jobs, want 2", len(l1.Jobs))
	}
	// Renewal moves the deadline; without it the lease dies at TTL.
	now = now.Add(8 * time.Second)
	if _, ok := q.Renew(l1.ID); !ok {
		t.Fatal("renew of a live lease failed")
	}
	now = now.Add(8 * time.Second) // 16s after grant, 8s after renew: still alive
	if g := q.Gauges(); g.Leased != 2 {
		t.Fatalf("gauges %+v, want 2 leased before expiry", g)
	}
	now = now.Add(3 * time.Second) // 11s after renew: expired

	l2 := q.Lease("w2", 0)
	if len(l2.Jobs) != 2 {
		t.Fatalf("post-expiry lease got %d jobs, want the 2 requeued", len(l2.Jobs))
	}
	if _, ok := q.Renew(l1.ID); ok {
		t.Fatal("renew of an expired lease succeeded")
	}
	c := q.Counters()
	if c.Requeued != 2 || c.Leased != 4 {
		t.Fatalf("counters %+v, want 2 requeued / 4 leased", c)
	}

	// The dead worker ships its rows anyway: they are still tracked jobs,
	// so they ingest — and w2's duplicate deliveries are then harmless.
	late := q.Ingest(dist.IngestRequest{Worker: "w1", Lease: l1.ID, Rows: []dist.ResultRow{
		wireFor(t, "h1", 11), wireFor(t, "h2", 22),
	}})
	if late.Ingested != 2 {
		t.Fatalf("late delivery = %+v, want 2 ingested", late)
	}
	dup := q.Ingest(dist.IngestRequest{Worker: "w2", Lease: l2.ID, Rows: []dist.ResultRow{
		wireFor(t, "h1", 11),
	}, Release: true})
	if dup.Duplicate != 1 || dup.Ingested != 0 {
		t.Fatalf("duplicate delivery = %+v, want 1 duplicate", dup)
	}
	waitDone(t, q, "plan")
}

// TestQueueReleaseRequeues: a draining worker's release puts its
// unfinished jobs straight back in the queue, no deadline wait.
func TestQueueReleaseRequeues(t *testing.T) {
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{})
	q.Enqueue("plan", specsFor("h1", "h2", "h3"))
	l := q.Lease("w1", 2)
	if len(l.Jobs) != 2 {
		t.Fatalf("lease got %d jobs, want 2", len(l.Jobs))
	}
	resp := q.Ingest(dist.IngestRequest{Worker: "w1", Lease: l.ID, Rows: []dist.ResultRow{
		wireFor(t, l.Jobs[0].Hash, 1),
	}, Release: true})
	if resp.Ingested != 1 || !resp.Done {
		t.Fatalf("release delivery = %+v, want 1 ingested + done", resp)
	}
	if g := q.Gauges(); g.Pending != 2 || g.Leased != 0 || g.Leases != 0 {
		t.Fatalf("gauges after release %+v, want 2 pending", g)
	}
	if c := q.Counters(); c.Requeued != 1 {
		t.Fatalf("counters %+v, want 1 requeued (the undelivered job)", c)
	}
}

// TestQueueCorruptRowRejectedAndRequeued is the integrity gate: a row
// whose checksum does not match its bytes is refused, never recorded,
// and its job is requeued for another worker.
func TestQueueCorruptRowRejectedAndRequeued(t *testing.T) {
	mem := store.NewMem()
	q := dist.NewQueue(mem, dist.QueueOptions{})
	q.Enqueue("plan", specsFor("h1"))
	l := q.Lease("w1", 0)

	bad := wireFor(t, "h1", 7)
	bad.Result = []byte(`{"cycles": 9999}`) // bytes no longer match the checksum
	resp := q.Ingest(dist.IngestRequest{Worker: "w1", Lease: l.ID, Rows: []dist.ResultRow{bad}})
	if resp.Rejected != 1 || resp.Ingested != 0 || len(resp.Errors) == 0 {
		t.Fatalf("corrupt delivery = %+v, want 1 rejected with an error", resp)
	}
	if _, ok, _ := mem.Get("h1"); ok {
		t.Fatal("corrupt row was recorded")
	}
	if g := q.Gauges(); g.Pending != 1 {
		t.Fatalf("gauges %+v, want the job requeued", g)
	}
	if c := q.Counters(); c.Requeued != 1 || c.Rejected != 1 {
		t.Fatalf("counters %+v, want 1 requeued / 1 rejected", c)
	}

	l2 := q.Lease("w2", 0)
	if len(l2.Jobs) != 1 || l2.Jobs[0].Hash != "h1" {
		t.Fatalf("requeued job not re-leased: %+v", l2.Jobs)
	}
	good := q.Ingest(dist.IngestRequest{Worker: "w2", Lease: l2.ID, Rows: []dist.ResultRow{wireFor(t, "h1", 7)}})
	if good.Ingested != 1 {
		t.Fatalf("clean retry = %+v, want 1 ingested", good)
	}
	waitDone(t, q, "plan")
}

// TestQueueUnsolicitedRow: the work endpoint is not an open ingest path.
// A row nobody leased is rejected unless the store already holds its
// hash (then it is a harmless duplicate).
func TestQueueUnsolicitedRow(t *testing.T) {
	mem := store.NewMem()
	q := dist.NewQueue(mem, dist.QueueOptions{})
	resp := q.Ingest(dist.IngestRequest{Worker: "rogue", Rows: []dist.ResultRow{wireFor(t, "hx", 1)}})
	if resp.Rejected != 1 || len(resp.Errors) != 1 {
		t.Fatalf("unsolicited row = %+v, want rejected", resp)
	}
	if err := mem.Put("hx", scenario.Result{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	resp = q.Ingest(dist.IngestRequest{Worker: "rogue", Rows: []dist.ResultRow{wireFor(t, "hx", 1)}})
	if resp.Duplicate != 1 || resp.Rejected != 0 {
		t.Fatalf("re-delivery of a stored row = %+v, want duplicate", resp)
	}
}

// TestQueueOverlappingPlans: two plans sharing a job hash wait on one
// row — the shared job is leased once, and its ingest advances both.
func TestQueueOverlappingPlans(t *testing.T) {
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{})
	q.Enqueue("p1", specsFor("h1", "h2"))
	q.Enqueue("p2", specsFor("h2", "h3"))
	if g := q.Gauges(); g.Pending != 3 {
		t.Fatalf("gauges %+v, want 3 pending (h2 shared, not duplicated)", g)
	}
	seen := map[string]int{}
	for {
		l := q.Lease("w", 0)
		if l.ID == "" {
			break
		}
		rows := make([]dist.ResultRow, len(l.Jobs))
		for i, sp := range l.Jobs {
			seen[sp.Hash]++
			rows[i] = wireFor(t, sp.Hash, 1)
		}
		if resp := q.Ingest(dist.IngestRequest{Worker: "w", Lease: l.ID, Rows: rows}); resp.Rejected > 0 {
			t.Fatalf("ingest rejected: %+v", resp)
		}
	}
	for h, n := range seen {
		if n != 1 {
			t.Fatalf("job %s leased %d times, want once", h, n)
		}
	}
	waitDone(t, q, "p1")
	waitDone(t, q, "p2")
	p1, p2 := q.PlanCounters("p1"), q.PlanCounters("p2")
	if p1.Ingested != 2 || p2.Ingested != 2 {
		t.Fatalf("plan counters p1=%+v p2=%+v, want 2 ingested each", p1, p2)
	}
}

// TestQueueJanitorRequeuesWithoutLeaseTraffic: when no worker ever calls
// Lease again (the crashed worker was the only one), the background
// janitor still expires the lease so Wait-ing plans are not stranded
// behind dead jobs forever.
func TestQueueJanitorRequeuesWithoutLeaseTraffic(t *testing.T) {
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{LeaseTTL: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go q.Janitor(ctx)

	q.Enqueue("plan", specsFor("h1"))
	l := q.Lease("w1", 0)
	if len(l.Jobs) != 1 {
		t.Fatalf("lease got %d jobs, want 1", len(l.Jobs))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := q.Gauges(); g.Pending == 1 && g.Leases == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never requeued the expired lease: gauges %+v", q.Gauges())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := q.Counters(); c.Requeued != 1 {
		t.Fatalf("counters %+v, want 1 requeued", c)
	}
}

// TestQueueWaitCancel: a cancelled Wait returns the context error while
// the queue keeps tracking the plan (a coordinator drain, not a loss).
func TestQueueWaitCancel(t *testing.T) {
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{})
	q.Enqueue("plan", specsFor("h1"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Wait(ctx, "plan"); err != context.Canceled {
		t.Fatalf("Wait under cancelled ctx = %v, want context.Canceled", err)
	}
	if g := q.Gauges(); g.Pending != 1 {
		t.Fatalf("gauges %+v, want the job still pending after a cancelled Wait", g)
	}
}

// TestDecodeRowGate pins the wire-level integrity contract directly.
func TestDecodeRowGate(t *testing.T) {
	row, err := dist.WireRow("h1", scenario.Result{Cycles: 42, Schema: scenario.ResultSchema})
	if err != nil {
		t.Fatal(err)
	}
	r, err := dist.DecodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 42 {
		t.Fatalf("decoded cycles %d, want 42", r.Cycles)
	}
	cases := []struct {
		name   string
		mutate func(dist.ResultRow) dist.ResultRow
	}{
		{"no hash", func(r dist.ResultRow) dist.ResultRow { r.Hash = ""; return r }},
		{"flipped bytes", func(r dist.ResultRow) dist.ResultRow { r.Result = []byte(`{"cycles":43}`); return r }},
		{"flipped sum", func(r dist.ResultRow) dist.ResultRow { r.Sum = "deadbeef"; return r }},
		{"future schema", func(r dist.ResultRow) dist.ResultRow {
			fresh, _ := dist.WireRow(r.Hash, scenario.Result{Cycles: 42, Schema: scenario.ResultSchema + 1})
			return fresh
		}},
	}
	for _, tc := range cases {
		if _, err := dist.DecodeRow(tc.mutate(row)); err == nil {
			t.Errorf("%s: DecodeRow accepted a bad row", tc.name)
		}
	}
}

// TestDecodeRowCompaction pins the rows DecodeRow accepts whether or not
// it compacts them first: a compact row and the same row re-indented in
// transit pass; a row tampered inside a string and a row whose sum was
// taken over re-indented bytes do not.
func TestDecodeRowCompaction(t *testing.T) {
	row, err := dist.WireRow("h1", scenario.Result{Platform: "ngmp-ref", Cycles: 42, Schema: scenario.ResultSchema})
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, row.Result, "", "  "); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(indented.Bytes(), row.Result) {
		t.Fatal("re-indenting left the row unchanged")
	}
	reindented := row
	reindented.Result = indented.Bytes()
	tampered := row
	tampered.Result = bytes.Replace(row.Result, []byte("ngmp-ref"), []byte("ngmp-var"), 1)
	if bytes.Equal(tampered.Result, row.Result) {
		t.Fatal("tampering left the row unchanged")
	}
	sumOverIndent := reindented
	sumOverIndent.Sum = store.SumRow(row.Hash, indented.Bytes())

	for _, tc := range []struct {
		name string
		row  dist.ResultRow
		ok   bool
	}{
		{"compact", row, true},
		{"re-indented", reindented, true},
		{"tampered inside a string", tampered, false},
		{"sum over re-indented bytes", sumOverIndent, false},
	} {
		r, err := dist.DecodeRow(tc.row)
		if tc.ok && (err != nil || r.Platform != "ngmp-ref" || r.Cycles != 42) {
			t.Errorf("%s: DecodeRow = %+v, %v; want the row back", tc.name, r, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: DecodeRow accepted it", tc.name)
		}
	}
}

// TestQueueManyPlansManyWorkers is a small soak: several overlapping
// plans, several workers leasing concurrently, every row lands exactly
// once and every Wait completes.
func TestQueueManyPlansManyWorkers(t *testing.T) {
	mem := store.NewMem()
	q := dist.NewQueue(mem, dist.QueueOptions{MaxBatch: 3})
	var all []string
	for p := 0; p < 4; p++ {
		var hashes []string
		for j := 0; j < 6; j++ {
			h := fmt.Sprintf("h%d", (p*3+j)%12) // overlapping ranges
			hashes = append(hashes, h)
		}
		all = append(all, fmt.Sprintf("plan-%d", p))
		q.Enqueue(all[p], specsFor(hashes...))
	}
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		go func(name string) {
			for {
				l := q.Lease(name, 0)
				if l.ID == "" {
					select {
					case <-done:
						return
					default:
						time.Sleep(time.Millisecond)
						continue
					}
				}
				rows := make([]dist.ResultRow, len(l.Jobs))
				for i, sp := range l.Jobs {
					rows[i] = wireFor(t, sp.Hash, 1)
				}
				q.Ingest(dist.IngestRequest{Worker: name, Lease: l.ID, Rows: rows})
			}
		}(fmt.Sprintf("w%d", w))
	}
	for _, plan := range all {
		waitDone(t, q, plan)
	}
	close(done)
	if n := mem.Len(); n != 12 {
		t.Fatalf("store holds %d rows, want the 12-hash union", n)
	}
	if c := q.Counters(); c.Ingested != 12 || c.Rejected != 0 {
		t.Fatalf("counters %+v, want 12 ingested, none rejected", c)
	}
}

// TestQueueFailedJobFailsWaitingPlans: a job that fails fails every plan
// waiting on it with its error, leaves the queue without a requeue, and
// takes with it the failed plans' jobs no other plan waits on. Both ways
// of reporting a failure take this path: an in-process Finish and a
// remote worker's release naming the job.
func TestQueueFailedJobFailsWaitingPlans(t *testing.T) {
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{})
	q.Enqueue("p1", specsFor("h1", "h2"))
	q.Enqueue("p2", specsFor("h1"))
	q.Enqueue("p3", specsFor("h3"))
	sp, ok := q.Take(context.Background())
	if !ok || sp.Hash != "h1" {
		t.Fatalf("Take = %+v, %v, want h1", sp, ok)
	}
	boom := fmt.Errorf("unknown task")
	q.Finish("h1", scenario.Result{}, boom)
	for _, plan := range []string{"p1", "p2"} {
		if err := q.Wait(context.Background(), plan); err != boom {
			t.Fatalf("Wait(%s) = %v, want the job's error", plan, err)
		}
	}
	if g := q.Gauges(); g.Pending != 1 || g.Leased != 0 {
		t.Fatalf("gauges %+v, want only p3's job left", g)
	}
	if c := q.Counters(); c.Requeued != 0 || c.Ingested != 0 {
		t.Fatalf("counters %+v, want nothing requeued or ingested", c)
	}

	l := q.Lease("w1", 0)
	if len(l.Jobs) != 1 || l.Jobs[0].Hash != "h3" {
		t.Fatalf("lease %+v, want h3", l.Jobs)
	}
	q.Ingest(dist.IngestRequest{Worker: "w1", Lease: l.ID, Release: true, Failed: "h3", Error: "unknown task"})
	if err := q.Wait(context.Background(), "p3"); err == nil || err.Error() != "unknown task" {
		t.Fatalf("Wait(p3) = %v, want the worker's error", err)
	}
	if g := q.Gauges(); g.Pending != 0 || g.Leased != 0 || g.Leases != 0 {
		t.Fatalf("gauges %+v, want an empty queue", g)
	}
}

// TestQueueOpenHandsOverRowRecordedMeanwhile is the at-most-once guard
// between a plan's store diff and its Enqueue: a job another plan
// finishes in between is handed over, not queued a second time, and
// counts as simulated for the plan that queued it first only.
func TestQueueOpenHandsOverRowRecordedMeanwhile(t *testing.T) {
	mem := store.NewMem()
	q := dist.NewQueue(mem, dist.QueueOptions{})
	q.Enqueue("p1", specsFor("h1"))
	q.Open("p2") // p2's diff misses h1 ...
	sp, _ := q.Take(context.Background())
	q.Finish(sp.Hash, scenario.Result{Cycles: 42}, nil) // ... which p1's worker then records
	waitDone(t, q, "p1")
	q.Enqueue("p2", specsFor("h1"))
	if rows, err := q.Collect(context.Background(), "p2"); err != nil || rows["h1"].Cycles != 42 {
		t.Fatalf("p2 rows %+v (err %v), want the recorded h1 row", rows, err)
	}
	if g := q.Gauges(); g.Pending != 0 {
		t.Fatalf("gauges %+v, want h1 not queued again", g)
	}
	p1, p2 := q.PlanCounters("p1"), q.PlanCounters("p2")
	if p1.Simulated != 1 || p1.Hits != 0 || p2.Simulated != 0 || p2.Hits != 1 {
		t.Fatalf("plan counters p1=%+v p2=%+v, want h1 simulated for p1 and a hit for p2", p1, p2)
	}
	if c := q.Counters(); c.Leased != 1 || c.Ingested != 1 {
		t.Fatalf("counters %+v, want h1 taken and recorded once", c)
	}
}

// TestQueueTakeWaitsForWork: an in-process worker blocks in Take until a
// job is enqueued, and a cancelled Take returns no job.
func TestQueueTakeWaitsForWork(t *testing.T) {
	q := dist.NewQueue(store.NewMem(), dist.QueueOptions{})
	got := make(chan string, 1)
	go func() {
		sp, _ := q.Take(context.Background())
		got <- sp.Hash
	}()
	time.Sleep(10 * time.Millisecond)
	q.Enqueue("plan", specsFor("h1"))
	select {
	case h := <-got:
		if h != "h1" {
			t.Fatalf("Take = %q, want h1", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Take never woke for the enqueued job")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := q.Take(ctx); ok {
		t.Fatal("a cancelled Take handed out a job")
	}
}
