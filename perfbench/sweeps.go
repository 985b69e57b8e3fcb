package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rrbus"
	"rrbus/internal/scenario"
)

// paperUBD is the paper's headline: Eq. 1 gives ubd = 27 cycles on both
// the reference and the variant platform, and the methodology recovers it.
const paperUBD = 27

// mixArbiters are the arbiters mix plans draw from. TDMA is left out: a
// TDMA slot shorter than one bus transaction can starve a core, and in
// `mix` count=64 over seeds 1–20 that made 19 of 1280 jobs fail with
// "warmup exceeded" (e.g. seed 2, job mix/055/tdma, tdma_slot 8), under
// both the event engine and the oracle, at 1–2 s per failure. With these
// four arbiters the same seeds gave no failure in 640 jobs.
var mixArbiters = []string{"rr", "wrr", "fp", "lottery"}

// paperPlans are the fixed plans of every paper-sweep pass: the Fig. 7(a)
// load sweeps, the derivation on both paper platforms, and the δnop
// ablation.
func paperPlans() []planSpec {
	return []planSpec{
		{gen: "fig7a", params: rrbus.Params{}},
		{gen: "derive", params: rrbus.Params{"arch": "ref"}, ubd: paperUBD},
		{gen: "derive", params: rrbus.Params{"arch": "var"}, ubd: paperUBD},
		{gen: "abl-dnop", params: rrbus.Params{}},
	}
}

// geometry is one point of the derive draw space: cores 3–8, a 3-cycle
// transfer and an L2 hit latency of 3, 6, 9 or 12 cycles.
type geometry struct{ cores, l2hit int }

func (g geometry) ubd() int { return rrbus.AnalyticUBD(g.cores, 3+g.l2hit) }

// spec is the derive plan for the geometry, swept far enough (kmax =
// 2·ubd + 8) to cover the two full periods detection needs.
func (g geometry) spec() planSpec {
	return planSpec{
		gen:    "derive",
		params: rrbus.Params{"cores": g.cores, "transfer": 3, "l2hit": g.l2hit, "kmax": 2*g.ubd() + 8},
		ubd:    g.ubd(),
	}
}

// geometryPairs pairs the draw space's 24 geometries cheapest with
// dearest. Cost grows with cores·ubd² (both the job count and the cycles
// per job grow with ubd), and the dearest geometry costs about 25 times
// the cheapest; pairing them keeps every pass near the same cost.
func geometryPairs() [][2]geometry {
	var gs []geometry
	for nc := 3; nc <= 8; nc++ {
		for _, l2 := range []int{3, 6, 9, 12} {
			gs = append(gs, geometry{nc, l2})
		}
	}
	cost := func(g geometry) int { return g.cores * g.ubd() * g.ubd() }
	sort.Slice(gs, func(i, j int) bool {
		if cost(gs[i]) != cost(gs[j]) {
			return cost(gs[i]) < cost(gs[j])
		}
		return gs[i].cores < gs[j].cores
	})
	pairs := make([][2]geometry, len(gs)/2)
	for i := range pairs {
		pairs[i] = [2]geometry{gs[i], gs[len(gs)-1-i]}
	}
	return pairs
}

// drawGeometries deals each pass two geometries: every 12 passes go
// through all 12 pairs once, in an order and orientation the seed draws.
// A run whose pass count is a multiple of 12 therefore covers the whole
// draw space equally often, so the amount of work does not depend on the
// seed while the inputs of each pass do.
func drawGeometries(seed uint64, passes int) [][2]geometry {
	pairs := geometryPairs()
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([][2]geometry, 0, passes+len(pairs))
	for len(out) < passes {
		for _, i := range rng.Perm(len(pairs)) {
			p := pairs[i]
			if rng.Intn(2) == 1 {
				p[0], p[1] = p[1], p[0]
			}
			out = append(out, p)
		}
	}
	return out[:passes]
}

// mixSeed is the generator seed of a mix-aperiodic pass: distinct per
// (seed, pass), so two benchmark seeds never share a pass's inputs.
func mixSeed(seed uint64, pass int) uint64 { return seed<<20 + uint64(pass) }

// mixPlans are the two aperiodic plans of one mix-aperiodic pass.
func mixPlans(s uint64) []planSpec {
	return []planSpec{
		{gen: "mix", params: rrbus.Params{"count": 64, "seed": s, "arbiters": mixArbiters}},
		{gen: "fig6a", params: rrbus.Params{"count": 16, "seed": s}},
	}
}

// perSecond sizes a workload from a calibrated rate of work units per
// second, at least one unit.
func perSecond(rate float64) func(int) int {
	return func(seconds int) int {
		return max(1, int(math.Round(rate*float64(seconds))))
	}
}

var paperSweep = &workload{
	name: "paper-sweep",
	why:  "the paper's reproduction path (plan, session, store, document) on fresh in-memory stores: simulation is ~95% of the time and a quarter of its cycles are leapt",
	// Passes come in whole deals of the 12 geometry pairs (see
	// drawGeometries); one deal takes about 4.8 s.
	size: func(seconds int) int { return 12 * max(1, int(math.Round(float64(seconds)/4.8))) },
	setup: func(b *bench, n int) (runner, error) {
		drawn := drawGeometries(b.seed, n)
		s := &sweep{
			passes: n,
			plans: func(pass int) []planSpec {
				return append(paperPlans(), drawn[pass][0].spec(), drawn[pass][1].spec())
			},
			log: newRowLog(),
		}
		return s, warmUp([][]planSpec{paperPlans(), paperPlans()})
	},
}

var mixAperiodic = &workload{
	name: "mix-aperiodic",
	why:  "seeded random mixes (rr, wrr, fp, lottery; no TDMA, whose short slots starve cores) and EEMBC-like sets: almost nothing is leapt, so leap changes must show no gain",
	size: perSecond(5.3),
	setup: func(b *bench, n int) (runner, error) {
		s := &sweep{
			passes: n,
			plans:  func(pass int) []planSpec { return mixPlans(mixSeed(b.seed, pass)) },
			log:    newRowLog(),
		}
		return s, warmUp([][]planSpec{mixPlans(mixSeed(0, 0)), mixPlans(mixSeed(0, 1)), mixPlans(mixSeed(0, 2))})
	},
}

var storeWarm = &workload{
	name: "store-warm",
	why:  "every paper-sweep and mix plan served from a warm store: compile, store reads, row decoding and rendering with nothing simulated",
	size: perSecond(7),
	setup: func(b *bench, n int) (runner, error) {
		var specs []planSpec
		specs = append(specs, paperPlans()...)
		for _, p := range drawGeometries(b.seed, 12) {
			specs = append(specs, p[0].spec(), p[1].spec())
		}
		specs = append(specs, mixPlans(mixSeed(b.seed, 0))...)
		dir, err := os.MkdirTemp(b.workdir, "warm-")
		if err != nil {
			return nil, err
		}
		s := &sweep{
			passes: n,
			plans:  func(int) []planSpec { return specs },
			noSim:  true,
			log:    newRowLog(),
			dir:    dir,
		}
		st, err := rrbus.OpenDirStore(dir)
		if err != nil {
			s.close()
			return nil, err
		}
		s.warm = st
		// Fill the store; these first renders are the reference every
		// pass must reproduce byte for byte.
		for _, sp := range specs {
			out, err := runPlan(nil, st, sp, 0, 0)
			if err != nil {
				s.close()
				return nil, err
			}
			s.log.observe(out)
		}
		return s, nil
	},
}

// planSpec is one plan a pass runs: a generator invocation plus, for a
// derive block, the Eq. 1 bound its derivation must recover (0 if none).
type planSpec struct {
	gen    string
	params rrbus.Params
	ubd    int
}

// planOut is what running one plan produced.
type planOut struct {
	spec      planSpec
	plan      *rrbus.Plan
	results   []rrbus.Result
	docs      [3][]byte // encoded with backendNames, in order
	simulated int64
}

var (
	backendNames = [3]string{"text", "html", "json"}
	encodeSpans  = [3]string{"report.encode.text", "report.encode.html", "report.encode.json"}
)

// runPlan takes one plan through the path a CLI user runs: compile the
// generator invocation, run it through a store-aware session, build the
// document, encode it with every backend, and decode the JSON encoding
// back. Each call into the pipeline is a span under parent.
func runPlan(tr *tracer, st rrbus.Store, sp planSpec, parent, req int64) (planOut, error) {
	out := planOut{spec: sp}
	id := tr.begin("scenario.compile", parent, req)
	plan, err := rrbus.GeneratorPlan(sp.gen, sp.params)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.plan = plan
	sess := &rrbus.Session{Store: st, Workers: 1}
	id = tr.begin("session.run_all", parent, req)
	if a, ok := st.(interface{ attribute(parent, req int64) }); ok {
		a.attribute(id, req)
	}
	out.results, err = sess.RunAll(plan)
	tr.end(id)
	out.simulated = sess.Simulated()
	if err != nil {
		return out, fmt.Errorf("run %s: %w", plan.Name(), err)
	}
	id = tr.begin("report.document", parent, req)
	doc, err := rrbus.DocumentFor(plan, out.results)
	tr.end(id)
	if err != nil {
		return out, err
	}
	for i, name := range backendNames {
		backend, err := rrbus.BackendByName(name)
		if err != nil {
			return out, err
		}
		var buf bytes.Buffer
		id = tr.begin(encodeSpans[i], parent, req)
		err = rrbus.RenderTo(&buf, doc, backend)
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("render %s as %s: %w", plan.Name(), name, err)
		}
		out.docs[i] = buf.Bytes()
	}
	id = tr.begin("report.decode.json", parent, req)
	_, err = rrbus.DecodeDocument(bytes.NewReader(out.docs[2]))
	tr.end(id)
	if err != nil {
		return out, fmt.Errorf("decode the JSON document of %s: %w", plan.Name(), err)
	}
	return out, nil
}

// sweep is a workload made of passes, each running a list of plans
// against a store; the pass is the timed operation.
type sweep struct {
	passes int
	plans  func(pass int) []planSpec
	// warm is the store every pass reads; nil gives each pass a fresh
	// in-memory store, so every job simulates. (A fresh directory store
	// would make the passes disk-bound: on the calibration VM's shared
	// disk, recording a row costs ~0.4 ms, 40% of a paper-sweep pass, and
	// its noise swamps the simulator's.)
	warm *rrbus.DirStore
	dir  string // warm's directory, removed by close
	// noSim asserts that no pass simulates anything.
	noSim bool
	log   *rowLog
}

func (s *sweep) digest() string { return s.log.sum() }

func (s *sweep) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// warmUp runs passes of plans, each on a throwaway in-memory store, so
// lazy set-up (simulator pools, heap growth) finishes before the first
// timed pass. The warm-up plans are the same for every seed, so setup_s
// measures the same work in every run; each warm-up takes about half a
// second.
func warmUp(passes [][]planSpec) error {
	for _, plans := range passes {
		st := rrbus.NewMemStore()
		for _, sp := range plans {
			if _, err := runPlan(nil, st, sp, 0, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *sweep) measure(b *bench) error {
	for i := 0; i < s.passes; i++ {
		if err := s.pass(b, i); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
	}
	return nil
}

// pass runs and times one pass: its duration is the plans' trip through
// the pipeline. Each plan's output is checked (and, when tracing, its
// simulated jobs replayed) as soon as it is done, outside the timing, so
// a pass never holds more than one plan's rows and documents.
func (s *sweep) pass(b *bench, i int) error {
	req := int64(i + 1)
	root := b.tr.begin("pass", 0, req)
	t0 := time.Now()
	store, spans := s.open(b)
	dt := time.Since(t0)
	var m0, m1 runtime.MemStats
	for _, sp := range s.plans(i) {
		runtime.ReadMemStats(&m0)
		e0 := readExec()
		p0 := time.Now()
		out, err := runPlan(b.tr, store, sp, root, req)
		d := time.Since(p0)
		e1 := readExec()
		runtime.ReadMemStats(&m1)
		dt += d
		b.alloc += m1.TotalAlloc - m0.TotalAlloc
		b.exec = b.exec.add(e1.sub(e0))
		b.op(err)
		if err == nil {
			id := b.tr.begin("check", root, req)
			s.check(b, out)
			if spans != nil {
				b.storeHits += spans.hits.Swap(0)
				replayPlan(b, req, spans.takePuts(), out)
			}
			b.tr.end(id)
		}
		if b.meter.work(d) {
			id := b.tr.begin("calibrate", root, req)
			b.meter.burst()
			b.tr.end(id)
		}
	}
	b.tr.end(root)
	b.wall += dt
	b.samples = append(b.samples, ms(dt))
	return nil
}

// open returns the pass's store — the warm one, or a fresh in-memory
// store — and, when tracing, the spans of its timing wrapper.
func (s *sweep) open(b *bench) (rrbus.Store, *storeSpans) {
	switch {
	case b.tr == nil && s.warm != nil:
		return s.warm, nil
	case b.tr == nil:
		return rrbus.NewMemStore(), nil
	case s.warm != nil:
		ts := newTimedDir(s.warm, b.tr)
		return ts, ts.storeSpans
	default:
		ts := newTimedMem(rrbus.NewMemStore(), b.tr)
		return ts, ts.storeSpans
	}
}

// check runs every correctness check on one plan's output.
func (s *sweep) check(b *bench, out planOut) {
	b.jobs += int64(len(out.plan.Jobs))
	b.simulated += out.simulated
	for i := range out.docs {
		b.bytes[i] += int64(len(out.docs[i]))
	}
	if repeat, rowsErr, docsErr := s.log.observe(out); repeat {
		b.checks.record("rows_repeat", rowsErr)
		b.checks.record("documents_repeat", docsErr)
	}
	if out.spec.ubd > 0 {
		ubdErr, confErr := checkDerive(out)
		b.checks.record("ubdm_equals_eq1", ubdErr)
		b.checks.record("confidence", confErr)
	}
	b.checks.record("rr_gamma_within_eq1", checkRRBound(out))
	if s.noSim {
		var err error
		if out.simulated != 0 {
			err = fmt.Errorf("%s simulated %d jobs from a warm store", out.plan.Name(), out.simulated)
		}
		b.checks.record("no_simulation", err)
	}
}

// checkDerive re-runs the detection half of the methodology over a
// derive block's rows: the derived ubdm must equal the Eq. 1 bound, with
// the bus saturated on every contended run and every detection method
// agreeing.
func checkDerive(out planOut) (ubdErr, confErr error) {
	d, err := rrbus.DeriveFromResults(out.plan, out.results)
	if err == nil {
		err = d.Err
	}
	if err != nil {
		err = fmt.Errorf("derive %v: %w", out.spec.params, err)
		return err, err
	}
	if d.Res.UBDm != out.spec.ubd {
		ubdErr = fmt.Errorf("derive %v: ubdm %d, Eq. 1 gives %d", out.spec.params, d.Res.UBDm, out.spec.ubd)
	}
	if c := d.Res.Confidence; !c.UtilizationOK || !c.MethodsAgree {
		confErr = fmt.Errorf("derive %v: utilization ok %v, methods agree %v", out.spec.params, c.UtilizationOK, c.MethodsAgree)
	}
	return ubdErr, confErr
}

// checkRRBound holds every job in the paper's setting — a round-robin
// bus whose other cores run rsk kernels or idle — to Eq. 1: no request of
// the measured task waits longer than ubd = (Nc-1)·lbus. Contenders that
// miss in the L2 put memory traffic on the bus, which Eq. 1 does not
// cover, so mixes with EEMBC-like contenders are exempt.
func checkRRBound(out planOut) error {
	for i, job := range out.plan.Jobs {
		if !paperSetting(job) {
			continue
		}
		cfg, err := job.Scenario.Platform.Build()
		if err != nil {
			return err
		}
		if g := out.results[i].MaxGamma; g > uint64(cfg.UBD()) {
			return fmt.Errorf("%s: max γ %d exceeds Eq. 1 ubd %d", job.ID, g, cfg.UBD())
		}
	}
	return nil
}

// paperSetting reports whether a job runs on a round-robin bus against
// rsk contenders only (idle cores allowed).
func paperSetting(job rrbus.Job) bool {
	if arb := job.Scenario.Platform.Arbiter; arb != "" && arb != "rr" {
		return false
	}
	for _, c := range job.Scenario.Workload.Contenders {
		if c != scenario.IdleSpec && !strings.HasPrefix(c, "rsk:") {
			return false
		}
	}
	return true
}

// replayPlan replays, serially and outside the timed region, every job
// the plan simulated: the rows it put into the store.
func replayPlan(b *bench, req int64, puts []string, out planOut) {
	index := map[string]int{}
	for i, h := range out.plan.JobHashes() {
		index[h] = i
	}
	for _, h := range puts {
		i, ok := index[h]
		if !ok {
			b.checks.record("replay_matches", fmt.Errorf("stored row %s belongs to no job of %s", h, out.plan.Name()))
			continue
		}
		b.checks.record("replay_matches", b.replay.replay(b.tr, req, out.plan.Jobs[i], out.results[i]))
	}
}

// rowLog digests each distinct plan's rows the first time the plan runs
// and holds every later run of it to the same rows and document bytes.
type rowLog struct {
	order []string // plan hashes, first-seen order
	rows  map[string][sha256.Size]byte
	docs  map[string][3][]byte
}

func newRowLog() *rowLog {
	return &rowLog{rows: map[string][sha256.Size]byte{}, docs: map[string][3][]byte{}}
}

// observe records a plan's output, or compares it with the first run of
// the same plan; repeat says which.
func (l *rowLog) observe(out planOut) (repeat bool, rowsErr, docsErr error) {
	h := out.plan.Hash()
	sum := rowsDigest(out.results)
	first, seen := l.rows[h]
	if !seen {
		l.order = append(l.order, h)
		l.rows[h] = sum
		l.docs[h] = out.docs
		return false, nil, nil
	}
	if sum != first {
		rowsErr = fmt.Errorf("%s: rows differ from its first run", out.plan.Name())
	}
	for i, want := range l.docs[h] {
		if !bytes.Equal(out.docs[i], want) {
			docsErr = fmt.Errorf("%s: %s document differs from its first render", out.plan.Name(), backendNames[i])
			break
		}
	}
	return true, rowsErr, docsErr
}

// sum is the rows_sha256 of the run: sha256 over each distinct plan's
// row digest, in first-seen order.
func (l *rowLog) sum() string {
	h := sha256.New()
	for _, p := range l.order {
		d := l.rows[p]
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rowsDigest is sha256 over the rows' JSON encodings, one per line.
func rowsDigest(rows []rrbus.Result) [sha256.Size]byte {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range rows {
		// Encoding into a hash cannot fail, and a Result always marshals.
		_ = enc.Encode(r)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
