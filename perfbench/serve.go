package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"rrbus"
)

// The serve-mixed load shape: two closed-loop clients (each sends its
// next request only after the previous document arrived); in every
// kindDeck requests, warmPerDeck resubmit a plan the store already holds
// and the rest submit a fresh four-job mix plan. The first warmupRequests
// of each client belong to the setup and are not counted.
const (
	serveClients   = 2
	kindDeck       = 10
	warmPerDeck    = 7
	warmupRequests = 100
	segment        = 20 // counted requests per client between reference bursts
	pollFirst      = 200 * time.Microsecond
	pollMax        = 5 * time.Millisecond
)

// servePlans are the warm plans: the paper's figures and derivations,
// recorded into the store at setup.
func servePlans() []planSpec {
	return []planSpec{
		{gen: "fig7a", params: rrbus.Params{}},
		{gen: "derive", params: rrbus.Params{"arch": "ref"}},
		{gen: "derive", params: rrbus.Params{"arch": "var"}},
		{gen: "fig4", params: rrbus.Params{}},
		{gen: "fig6b", params: rrbus.Params{}},
		{gen: "fig3", params: rrbus.Params{}},
	}
}

var serveMixed = &workload{
	name: "serve-mixed",
	why:  "what a service user sees: 2 closed-loop HTTP clients, 70% warm resubmissions and 30% new mix plans, through plan registry, session, store and render",
	size: perSecond(160),
	setup: func(b *bench, n int) (runner, error) {
		dir, err := os.MkdirTemp(b.workdir, "serve-")
		if err != nil {
			return nil, err
		}
		r := &serveRun{dir: dir, perClient: n}
		if err := r.init(b); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	},
}

// warmPlan is a plan the store holds, with the documents the server must
// return for it.
type warmPlan struct {
	body []byte // the submission: the plan spec as JSON
	hash string
	jobs int
	docs [3][]byte
}

// serveRun is an in-process rrbus server over a warm directory store,
// listening on loopback, and the clients' request schedule.
type serveRun struct {
	dir       string
	perClient int
	warm      []warmPlan
	srv       *rrbus.Server
	hs        *httptest.Server
	st        *rrbus.DirStore
	spans     *storeSpans // traced run only
	clients   []*client
	digests   [serveClients][]byte
	mixSeeds  []uint64 // fresh plans submitted in the counted phase
}

func (r *serveRun) init(b *bench) error {
	st, err := rrbus.OpenDirStore(r.dir)
	if err != nil {
		return err
	}
	r.st = st
	for _, sp := range servePlans() {
		out, err := runPlan(nil, st, sp, 0, 0)
		if err != nil {
			return err
		}
		body, err := json.Marshal(rrbus.PlanSpec{Generator: sp.gen, Params: sp.params})
		if err != nil {
			return err
		}
		r.warm = append(r.warm, warmPlan{body: body, hash: out.plan.Hash(), jobs: len(out.plan.Jobs), docs: out.docs})
	}
	var served rrbus.Store = st
	if b.tr != nil {
		ts := newTimedDir(st, b.tr)
		served, r.spans = ts, ts.storeSpans
	}
	r.srv = rrbus.NewServer(served, rrbus.ServeOptions{Workers: 1, MaxActivePlans: 2})
	r.hs = httptest.NewServer(r.srv)

	r.clients = make([]*client, serveClients)
	for i := range r.clients {
		rng := rand.New(rand.NewSource(int64(b.seed)*serveClients + int64(i)))
		r.clients[i] = &client{
			id:      i,
			rng:     rng,
			kinds:   deck{rng: rng, n: kindDeck},
			plans:   deck{rng: rng, n: len(r.warm)},
			formats: deck{rng: rng, n: len(backendNames)},
			http:    r.hs.Client(),
			digest:  sha256.New(),
		}
	}
	r.phase(b, r.clients, 0, warmupRequests, false)
	return nil
}

func (r *serveRun) close() {
	if r.hs != nil {
		r.hs.Close()
	}
	if r.srv != nil {
		r.srv.Drain()
	}
	os.RemoveAll(r.dir)
}

func (r *serveRun) digest() string {
	h := sha256.New()
	for _, d := range r.digests {
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deck deals 0..n-1 in seed-shuffled rounds: over any whole number of
// rounds each value comes up equally often, whatever the seed.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	v := d.order[0]
	d.order = d.order[1:]
	return v
}

// client is one closed-loop client: its own request schedule, dealt from
// decks the seed shuffles so that the mix of warm plans, fresh plans and
// formats is the same for every seed, and a digest of every document it
// received, in order.
type client struct {
	id      int
	rng     *rand.Rand // fresh plans' seeds
	kinds   deck       // < warmPerDeck: resubmit a warm plan
	plans   deck       // which warm plan
	formats deck       // which backend
	http    *http.Client
	digest  hash.Hash
	samples []float64
	jobs    int64
	results []error
	polls   int // 409 answers to counted requests' document polls
	seeds   []uint64
}

func (r *serveRun) measure(b *bench) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := readExec()
	if r.spans != nil {
		r.spans.takePuts()
		r.spans.hits.Store(0)
		b.traceFrom = b.tr.now()
	}
	// The counted requests run in segments; between two, both clients
	// wait while the reference burst runs on an idle machine.
	for done := 0; done < r.perClient; done += segment {
		t0 := time.Now()
		r.phase(b, r.clients, done, min(segment, r.perClient-done), true)
		d := time.Since(t0)
		b.wall += d
		if b.meter.work(d) {
			b.meter.burst()
		}
	}
	e1 := readExec()
	runtime.ReadMemStats(&m1)
	b.alloc = m1.TotalAlloc - m0.TotalAlloc
	b.exec = e1.sub(e0)

	for i, c := range r.clients {
		b.samples = append(b.samples, c.samples...)
		b.jobs += c.jobs
		b.polls += c.polls
		for _, err := range c.results {
			b.op(err)
		}
		r.digests[i] = c.digest.Sum(nil)
		r.mixSeeds = append(r.mixSeeds, c.seeds...)
	}
	if r.spans != nil {
		b.storeHits = r.spans.hits.Load()
		r.replay(b, r.spans.takePuts())
	}
	r.hs.Close()
	b.serve = r.srv.Drain()
	r.hs, r.srv = nil, nil
	return nil
}

// phase runs requests from..from+n-1 on every client concurrently;
// counted requests record their latency and outcome.
func (r *serveRun) phase(b *bench, clients []*client, from, n int, counted bool) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := from; i < from+n; i++ {
				r.request(b, c, i, counted)
			}
		}()
	}
	wg.Wait()
}

// request draws and sends one request: submit a plan, then poll for its
// document with exponential backoff until the server returns it.
func (r *serveRun) request(b *bench, c *client, i int, counted bool) {
	k := c.formats.next()
	var body []byte
	var warm *warmPlan
	var seed uint64
	jobs := 4
	if c.kinds.next() < warmPerDeck {
		warm = &r.warm[c.plans.next()]
		body, jobs = warm.body, warm.jobs
	} else {
		// Below 2^52, so the seed survives the trip through a JSON number.
		seed = uint64(c.rng.Int63n(1 << 52))
		var err error
		body, err = json.Marshal(rrbus.PlanSpec{Generator: "mix",
			Params: rrbus.Params{"count": 4, "seed": seed, "arbiters": mixArbiters}})
		if err != nil {
			panic(err) // a literal spec always marshals
		}
	}
	var req int64
	if counted {
		req = int64(c.id)<<32 | int64(i+1)
	}
	root := b.tr.begin("serve.request", 0, req)
	t0 := time.Now()
	doc, polls, err := r.roundTrip(b.tr, c, root, req, body, backendNames[k])
	dt := time.Since(t0)
	b.tr.end(root)
	c.digest.Write(doc)
	if err == nil && warm != nil && !bytes.Equal(doc, warm.docs[k]) {
		err = fmt.Errorf("warm plan %.12s: served %s document differs from DocumentFor+RenderTo", warm.hash, backendNames[k])
	}
	if !counted {
		return
	}
	c.samples = append(c.samples, ms(dt))
	c.results = append(c.results, err)
	c.polls += polls
	if err == nil {
		c.jobs += int64(jobs)
	}
	if warm == nil {
		c.seeds = append(c.seeds, seed)
	}
}

// planState is the part of the server's plan status the client reads.
type planState struct {
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Err    string `json:"error"`
}

// roundTrip submits body, then polls the plan's document in format until
// the server returns it; polls counts the answers that said "not yet".
// The final, successful fetch is the serve.doc span, the others are
// serve.poll spans.
func (r *serveRun) roundTrip(tr *tracer, c *client, root, req int64, body []byte, format string) (doc []byte, polls int, err error) {
	id := tr.begin("serve.submit", root, req)
	code, data, err := call(c.http, http.MethodPost, r.hs.URL+"/v1/plans", body)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	var st planState
	if code != http.StatusAccepted || json.Unmarshal(data, &st) != nil || st.Hash == "" {
		return nil, 0, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	url := r.hs.URL + "/v1/plans/" + st.Hash + "/doc?format=" + format
	wait := pollFirst
	for {
		id = tr.begin("serve.poll", root, req)
		code, data, err = call(c.http, http.MethodGet, url, nil)
		if code == http.StatusOK {
			tr.rename(id, "serve.doc")
		}
		tr.end(id)
		if err != nil {
			return nil, polls, err
		}
		if code == http.StatusOK {
			return data, polls, nil
		}
		if code != http.StatusConflict || json.Unmarshal(data, &st) != nil {
			return nil, polls, fmt.Errorf("doc: HTTP %d: %s", code, bytes.TrimSpace(data))
		}
		// The server snapshots the status after deciding the document is
		// not ready, so a 409 can already read "complete": only a plan that
		// failed or was interrupted ends the wait.
		if st.Status == rrbus.PlanFailed || st.Status == rrbus.PlanInterrupted {
			return nil, polls, fmt.Errorf("plan %.12s %s: %s", st.Hash, st.Status, st.Err)
		}
		polls++
		time.Sleep(wait)
		wait = min(2*wait, pollMax)
	}
}

// call makes one HTTP request and reads the whole response.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// replay re-runs the jobs the server simulated during the counted phase
// (the fresh mix plans' rows it stored).
func (r *serveRun) replay(b *bench, puts []string) {
	byHash := map[string]rrbus.Job{}
	for _, s := range r.mixSeeds {
		plan, err := rrbus.GeneratorPlan("mix", rrbus.Params{"count": 4, "seed": s, "arbiters": mixArbiters})
		if err != nil {
			b.checks.record("replay_matches", err)
			return
		}
		for i, h := range plan.JobHashes() {
			byHash[h] = plan.Jobs[i]
		}
	}
	for _, h := range puts {
		job, ok := byHash[h]
		if !ok {
			b.checks.record("replay_matches", fmt.Errorf("stored row %s belongs to no submitted plan", h))
			continue
		}
		row, ok, err := r.st.Get(h)
		if err == nil && !ok {
			err = fmt.Errorf("stored row %s vanished", h)
		}
		if err == nil {
			err = b.replay.replay(b.tr, 0, job, row)
		}
		b.checks.record("replay_matches", err)
	}
}
