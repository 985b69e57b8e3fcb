package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rrbus"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// measureOnce sets a workload up once and measures n units of it.
func measureOnce(t *testing.T, w *workload, seed uint64, n int, traced bool) (*bench, runner) {
	t.Helper()
	b := &bench{seed: seed, workdir: t.TempDir(), checks: checks{}}
	if traced {
		b.tr = newTracer()
	}
	r, err := w.setup(b, n)
	if err != nil {
		t.Fatalf("%s setup: %v", w.name, err)
	}
	t.Cleanup(r.close)
	if err := r.measure(b); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	b.rowsSHA = r.digest()
	return b, r
}

// smallRun is each workload's unit count for tests: one or two passes,
// or two requests per client after the warm-up.
var smallRun = map[string]int{"paper-sweep": 1, "mix-aperiodic": 2, "store-warm": 1, "serve-mixed": 2}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, _ := measureOnce(t, w, 1, smallRun[w.name], false)
			if !b.checks.ok() {
				t.Fatalf("checks failed: %v", b.checks.failures())
			}
			if b.attempted == 0 || b.failed != 0 || b.jobs == 0 {
				t.Fatalf("attempted %d, failed %d, jobs %d", b.attempted, b.failed, b.jobs)
			}
			if len(b.samples) == 0 || b.wall <= 0 {
				t.Fatalf("no timed operation: %d samples, wall %v", len(b.samples), b.wall)
			}
		})
	}
}

// TestTracedRunMatchesUntraced pins that tracing, the timing store
// wrapper included, changes no output: the same rows and documents.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, pr := measureOnce(t, w, 2, smallRun[w.name], false)
			traced, tr := measureOnce(t, w, 2, smallRun[w.name], true)
			if plain.rowsSHA != traced.rowsSHA {
				t.Fatalf("rows_sha256 untraced %s, traced %s", plain.rowsSHA, traced.rowsSHA)
			}
			if !traced.checks.ok() {
				t.Fatalf("traced checks failed: %v", traced.checks.failures())
			}
			if ps, ok := pr.(*sweep); ok {
				if !reflect.DeepEqual(ps.log.docs, tr.(*sweep).log.docs) {
					t.Fatal("traced and untraced runs rendered different documents")
				}
			}
			if len(traced.tr.snapshot(traced.traceFrom)) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

func TestSeedReproducesInputsAndRows(t *testing.T) {
	a, _ := measureOnce(t, mixAperiodic, 7, 1, false)
	b, _ := measureOnce(t, mixAperiodic, 7, 1, false)
	c, _ := measureOnce(t, mixAperiodic, 8, 1, false)
	if a.rowsSHA != b.rowsSHA {
		t.Fatalf("seed 7 twice: rows_sha256 %s vs %s", a.rowsSHA, b.rowsSHA)
	}
	if a.rowsSHA == c.rowsSHA {
		t.Fatal("seeds 7 and 8 produced the same rows")
	}

	// paper-sweep: another seed deals other geometries to each pass, but
	// a whole deal covers the same draw space, so the work is the same.
	d7, d8 := drawGeometries(7, 12), drawGeometries(8, 12)
	if reflect.DeepEqual(d7, d8) {
		t.Fatal("seeds 7 and 8 drew the same geometries")
	}
	if !reflect.DeepEqual(d7, drawGeometries(7, 12)) {
		t.Fatal("seed 7 drew different geometries twice")
	}
	flat := func(d [][2]geometry) []geometry {
		var out []geometry
		for _, p := range d {
			out = append(out, p[0], p[1])
		}
		slices.SortFunc(out, func(x, y geometry) int { return x.cores*100 + x.l2hit - y.cores*100 - y.l2hit })
		return out
	}
	if f := flat(d7); !reflect.DeepEqual(f, flat(d8)) || len(f) != 24 || len(slices.Compact(f)) != 24 {
		t.Fatalf("a deal must cover the 24 geometries once: %v", f)
	}
}

// derivePlan runs the reference derivation once into a fresh store.
func derivePlan(t *testing.T) planOut {
	t.Helper()
	st, err := rrbus.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out, err := runPlan(nil, st, paperPlans()[1], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChecksCatchWrongOutputs(t *testing.T) {
	out := derivePlan(t)
	if ubdErr, confErr := checkDerive(out); ubdErr != nil || confErr != nil {
		t.Fatalf("reference derivation: %v, %v", ubdErr, confErr)
	}
	wrong := out
	wrong.spec.ubd = paperUBD + 1
	if ubdErr, _ := checkDerive(wrong); ubdErr == nil {
		t.Fatal("a wrong expected ubdm passed the check")
	}

	log := newRowLog()
	log.observe(out)
	if _, rowsErr, docsErr := log.observe(out); rowsErr != nil || docsErr != nil {
		t.Fatalf("identical repeat: %v, %v", rowsErr, docsErr)
	}
	altered := out
	altered.docs[1] = append(bytes.Clone(out.docs[1]), ' ')
	if _, _, docsErr := log.observe(altered); docsErr == nil {
		t.Fatal("altered document bytes passed the check")
	}
	altered = out
	altered.results = slices.Clone(out.results)
	altered.results[3].Cycles++
	if _, rowsErr, _ := log.observe(altered); rowsErr == nil {
		t.Fatal("an altered row passed the check")
	}
}

// TestBrokenCheckExitsOne runs a workload whose derive block expects the
// wrong bound through the same path the command takes.
func TestBrokenCheckExitsOne(t *testing.T) {
	broken := &workload{
		name: "broken",
		size: func(int) int { return 1 },
		setup: func(b *bench, n int) (runner, error) {
			spec := paperPlans()[1]
			spec.ubd = paperUBD + 1
			return &sweep{passes: n, plans: func(int) []planSpec { return []planSpec{spec} }, log: newRowLog()}, nil
		},
	}
	var stdout, stderr bytes.Buffer
	if code := measure(broken, 1, 1, false, t.TempDir(), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1 {
		t.Fatalf("result %+v, want correct=false over 1 attempt", res)
	}
	if !strings.Contains(stderr.String(), "ubdm_equals_eq1") {
		t.Fatalf("stderr does not name the failed check: %s", stderr.String())
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		p, want float64
	}{
		{5, 50, 3},      // too few for any tail: the median
		{12, 50, 6},     // p75 would leave 3 beyond
		{60, 75, 45},    // p90 would leave 6 beyond
		{200, 95, 190},  // p99 would leave 2 beyond
		{1000, 99, 990}, // p99.9 would leave 1 beyond
		{20000, 99.9, 19980},
	} {
		p, v, n := tail(seq(tc.n))
		if p != tc.p || v != tc.want || n != tc.n {
			t.Errorf("tail(1..%d) = p%v %v over %d, want p%v %v over %d", tc.n, p, v, n, tc.p, tc.want, tc.n)
		}
		if _, beyond := percentile(seq(tc.n), p); tc.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, p, beyond)
		}
	}
}

// TestTimedStoreForwardsEveryInterface pins that the timing wrapper
// offers every optional interface the session and the server look for,
// with the bare store's behaviour.
func TestTimedStoreForwardsEveryInterface(t *testing.T) {
	d, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var s rrbus.Store = newTimedDir(d, newTracer())
	if _, ok := s.(store.PlanRecorder); !ok {
		t.Error("no PutPlan")
	}
	if _, ok := s.(store.Quarantiner); !ok {
		t.Error("no Quarantine")
	}
	ms, ok := s.(interface {
		PlanInfo(string) store.PlanInfo
		PlanSpec(string) (*scenario.Plan, error)
		PlanInfos() ([]store.PlanInfo, error)
		Root() string
		Len() (int, error)
	})
	if !ok {
		t.Fatal("no manifest view (PlanInfo, PlanSpec, PlanInfos, Root, Len)")
	}
	if _, ok := s.(interface{ JobHashes() ([]string, error) }); !ok {
		t.Error("no JobHashes")
	}

	out := derivePlan(t)
	if err := rrbus.ImportResults(s, out.plan, out.results); err != nil {
		t.Fatal(err)
	}
	if ms.Root() != d.Root() {
		t.Errorf("Root %q, want %q", ms.Root(), d.Root())
	}
	got, _ := ms.PlanInfos()
	want, _ := d.PlanInfos()
	if !reflect.DeepEqual(got, want) || len(got) != 1 || got[0].Present != len(out.plan.Jobs) {
		t.Errorf("PlanInfos through the wrapper %+v, bare %+v", got, want)
	}
	if n := len(s.(timedDir).takePuts()); n != len(out.plan.Jobs) {
		t.Errorf("recorded %d puts, want %d", n, len(out.plan.Jobs))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and this package's
// workloads and metric definitions in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range spec.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json why %q, code %q", w.Name, w.Why, workloads[i].why)
		}
	}
	var codeNames []string
	for _, w := range workloads {
		codeNames = append(codeNames, w.name)
	}
	if !slices.Equal(names, codeNames) {
		t.Errorf("workloads %v, code %v", names, codeNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
}
