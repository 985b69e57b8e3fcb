package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rrbus"
	"rrbus/internal/store"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function. Times are nanoseconds since the run
// started; Parent is 0 for a root span, Req groups the spans of one pass
// or one HTTP request (0 for calls the server makes on its own).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when not tracing).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename gives an open span the name its outcome calls for.
func (t *tracer) rename(id int64, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// now is the tracer's clock: nanoseconds since the run started.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// snapshot returns the spans that started at or after from (a tracer
// clock reading); call it once the run is over.
func (t *tracer) snapshot(from int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans dumps spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("marshal spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTimes is the per-name summary of a span set: total self time (a
// span's duration minus the part its children cover), every duration, and
// the count.
type layerTimes map[string]*layerTime

type layerTime struct {
	selfNS int64
	durs   []float64 // ns
}

// summarize computes self times. Children of one parent never overlap in
// this benchmark's spans (the sweeps are serial and each HTTP call belongs
// to one client), so a parent's self time is its duration minus the sum
// of its children's.
func summarize(spans []span) layerTimes {
	child := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := layerTimes{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.selfNS += s.dur() - child[s.ID]
		lt.durs = append(lt.durs, float64(s.dur()))
	}
	return out
}

// self is the named layer's total self time in seconds (0 if absent).
func (l layerTimes) self(name string) float64 {
	if lt := l[name]; lt != nil {
		return float64(lt.selfNS) / 1e9
	}
	return 0
}

// p50 is the named span's median duration in nanoseconds (0 if absent).
func (l layerTimes) p50(name string) float64 {
	if lt := l[name]; lt != nil {
		return median(lt.durs)
	}
	return 0
}

// count is how many spans carry the name.
func (l layerTimes) count(name string) int {
	if lt := l[name]; lt != nil {
		return len(lt.durs)
	}
	return 0
}

// storeSpans records a span around each Get and Put of the store it is
// embedded beside, tallies hits, and keeps the hashes Put since the last
// takePuts: the jobs simulated in that interval, which the replay re-runs.
type storeSpans struct {
	tr *tracer
	// parent and req attribute the calls to the span a sweep is inside;
	// both stay 0 under the server, whose calls belong to no client span.
	parent, req atomic.Int64
	hits        atomic.Int64

	mu   sync.Mutex
	puts []string
}

// attribute makes later calls children of span parent in request req.
func (s *storeSpans) attribute(parent, req int64) {
	s.parent.Store(parent)
	s.req.Store(req)
}

func (s *storeSpans) get(jobHash string, get func(string) (rrbus.Result, bool, error)) (rrbus.Result, bool, error) {
	id := s.tr.begin("store.get", s.parent.Load(), s.req.Load())
	r, ok, err := get(jobHash)
	s.tr.end(id)
	if ok {
		s.hits.Add(1)
	}
	return r, ok, err
}

func (s *storeSpans) put(jobHash string, r rrbus.Result, put func(string, rrbus.Result) error) error {
	id := s.tr.begin("store.put", s.parent.Load(), s.req.Load())
	err := put(jobHash, r)
	s.tr.end(id)
	if err == nil {
		s.mu.Lock()
		s.puts = append(s.puts, jobHash)
		s.mu.Unlock()
	}
	return err
}

func (s *storeSpans) takePuts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.puts
	s.puts = nil
	return out
}

// timedDir wraps a directory store with storeSpans, adding a span around
// PutPlan. Embedding the *store.Dir forwards every other method
// unchanged, so every optional interface the session and the server
// type-assert (store.Quarantiner; PlanInfo, PlanSpec, PlanInfos, Root and
// Len for the server's manifest views; JobHashes for its sync endpoints)
// behaves exactly as on the bare store: wrapping changes timing, not
// behaviour.
type timedDir struct {
	*store.Dir
	*storeSpans
}

var _ interface {
	rrbus.Store
	store.PlanRecorder
	store.Quarantiner
} = timedDir{}

func newTimedDir(d *store.Dir, tr *tracer) timedDir {
	return timedDir{Dir: d, storeSpans: &storeSpans{tr: tr}}
}

// Get implements store.Store.
func (s timedDir) Get(jobHash string) (rrbus.Result, bool, error) { return s.get(jobHash, s.Dir.Get) }

// Put implements store.Store.
func (s timedDir) Put(jobHash string, r rrbus.Result) error { return s.put(jobHash, r, s.Dir.Put) }

// PutPlan implements store.PlanRecorder.
func (s timedDir) PutPlan(c *rrbus.Plan) error {
	id := s.tr.begin("store.put_plan", s.parent.Load(), s.req.Load())
	err := s.Dir.PutPlan(c)
	s.tr.end(id)
	return err
}

// timedMem is timedDir for an in-memory store, which records no plans.
type timedMem struct {
	*store.Mem
	*storeSpans
}

var _ interface {
	rrbus.Store
	store.Quarantiner
} = timedMem{}

func newTimedMem(m *store.Mem, tr *tracer) timedMem {
	return timedMem{Mem: m, storeSpans: &storeSpans{tr: tr}}
}

// Get implements store.Store.
func (s timedMem) Get(jobHash string) (rrbus.Result, bool, error) { return s.get(jobHash, s.Mem.Get) }

// Put implements store.Store.
func (s timedMem) Put(jobHash string, r rrbus.Result) error { return s.put(jobHash, r, s.Mem.Put) }
