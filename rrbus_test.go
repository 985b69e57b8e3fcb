package rrbus_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rrbus"
)

func TestFacadeConfigs(t *testing.T) {
	ref := rrbus.ReferenceNGMP()
	if ref.UBD() != 27 || ref.Cores != 4 {
		t.Errorf("reference: ubd=%d cores=%d", ref.UBD(), ref.Cores)
	}
	v := rrbus.VariantNGMP()
	if v.DL1.Latency != 4 {
		t.Error("variant DL1 latency")
	}
	s := rrbus.ScaledConfig(ref, 6, 3, 6)
	if s.UBD() != 45 {
		t.Errorf("scaled ubd = %d", s.UBD())
	}
}

func TestFacadeAnalytic(t *testing.T) {
	if rrbus.AnalyticUBD(4, 9) != 27 {
		t.Error("Eq. 1")
	}
	if rrbus.AnalyticGamma(1, 27) != 26 {
		t.Error("Eq. 2")
	}
	if rrbus.AnalyticGamma(0, 6) != 6 {
		t.Error("Eq. 2 at δ=0")
	}
}

func TestFacadeProfiles(t *testing.T) {
	ps := rrbus.EEMBCProfiles()
	if len(ps) != 16 {
		t.Fatalf("profiles = %d", len(ps))
	}
	p, ok := rrbus.EEMBCProfile("matrix")
	if !ok {
		t.Fatal("matrix profile missing")
	}
	prog, err := p.Build(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Validate() != nil {
		t.Fatal("built program invalid")
	}
}

func TestFacadeKernelsAndRun(t *testing.T) {
	cfg := rrbus.ReferenceNGMP()
	b := rrbus.NewKernelBuilder(cfg)
	scua, err := b.RSK(0, rrbus.OpLoad)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rrbus.RunIsolation(cfg, scua, rrbus.RunOpts{WarmupIters: 2, MeasureIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || m.Cycles == 0 {
		t.Error("empty measurement")
	}

	var cont []*rrbus.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, rrbus.OpLoad)
		if err != nil {
			t.Fatal(err)
		}
		cont = append(cont, p)
	}
	mc, err := rrbus.Run(cfg, rrbus.Workload{Scua: scua, Contenders: cont},
		rrbus.RunOpts{WarmupIters: 2, MeasureIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cycles <= m.Cycles {
		t.Error("contention must slow the scua")
	}
}

func TestFacadeDeriveEndToEnd(t *testing.T) {
	ctx := context.Background()
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}
	ref := rrbus.PlatformSpec{Arch: "ref"}
	res, err := rrbus.DeriveUBD(ctx, sess, ref, rrbus.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 27 {
		t.Errorf("derived %d", res.UBDm)
	}
	nv, err := rrbus.NaiveUBDM(ctx, sess, ref, rrbus.OpLoad)
	if err != nil {
		t.Fatal(err)
	}
	if nv.UBDm != 26 {
		t.Errorf("naive %d", nv.UBDm)
	}
	if res.ETB(1000, 10) != 1000+10*27 {
		t.Error("ETB arithmetic")
	}
	// Both ran as plans through the session: 41 derivation jobs at
	// kmax 40, the 40 new ones at kmax 80, and the naive job.
	if sim, hits := sess.Simulated(), sess.StoreHits(); sim != 82 || hits != 41 {
		t.Errorf("session simulated %d and served %d, want 82 and 41", sim, hits)
	}
}

// passCounter is a MemStore that counts the rows each plan run records:
// the jobs a derivation pass had to simulate. Each run records its plan
// first, which opens the next pass's count.
type passCounter struct {
	*rrbus.MemStore
	simulated []int
}

func (p *passCounter) PutPlan(*rrbus.Plan) error {
	p.simulated = append(p.simulated, 0)
	return nil
}

func (p *passCounter) Put(jobHash string, r rrbus.Result) error {
	p.simulated[len(p.simulated)-1]++
	return p.MemStore.Put(jobHash, r)
}

// TestDeriveExtendsIncrementally pins the auto-extension: on a 6-core
// platform with lbus 15 (ubd 75) the kmax 40 and 80 passes see fewer
// than two periods, so the derivation runs to kmax 160, and each pass
// simulates only the k its predecessors did not.
func TestDeriveExtendsIncrementally(t *testing.T) {
	st := &passCounter{MemStore: rrbus.NewMemStore()}
	sess := &rrbus.Session{Store: st}
	res, err := rrbus.DeriveUBD(context.Background(), sess, rrbus.PlatformSpec{Cores: 6, L2Hit: 12}, rrbus.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UBDm != 75 || len(res.Slowdowns) != 160 || res.Confidence.Score() != 1 {
		t.Errorf("derived %d over %d points (confidence %.2f), want 75 over 160 at 1",
			res.UBDm, len(res.Slowdowns), res.Confidence.Score())
	}
	if want := []int{41, 40, 80}; !slices.Equal(st.simulated, want) {
		t.Errorf("passes simulated %v jobs, want %v", st.simulated, want)
	}
	if sim, hits := sess.Simulated(), sess.StoreHits(); sim != 161 || hits != 41+81 {
		t.Errorf("session simulated %d and served %d, want 161 and 122", sim, hits)
	}
}

// TestDeriveKLimitCapsFlatSweep: a TDMA bus shows no saw-tooth, so the
// derivation extends until KLimit and reports the detection failure of
// that last pass alongside its result.
func TestDeriveKLimitCapsFlatSweep(t *testing.T) {
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}
	res, err := rrbus.DeriveUBD(context.Background(), sess, rrbus.PlatformSpec{Arbiter: "tdma"}, rrbus.DeriveOptions{KLimit: 80})
	want := "core: no saw-tooth period found in k=1..80 (flat or aperiodic slowdown — is the arbiter round-robin?)"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if res == nil || len(res.Slowdowns) != 80 {
		t.Error("the failed derivation must return the capped sweep's result")
	}
	if sim := sess.Simulated(); sim != 81 {
		t.Errorf("simulated %d jobs, want 81 (each k once)", sim)
	}
}

func TestFacadeSystemAndTrace(t *testing.T) {
	cfg := rrbus.ReferenceNGMP()
	b := rrbus.NewKernelBuilder(cfg)
	progs := make([]*rrbus.Program, 0, 4)
	iters := make([]uint64, 0, 4)
	for c := 0; c < 4; c++ {
		p, err := b.RSK(c, rrbus.OpLoad)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
		it := uint64(0)
		if c == 0 {
			it = 5
		}
		iters = append(iters, it)
	}
	sys, err := rrbus.NewSystem(cfg, progs, iters)
	if err != nil {
		t.Fatal(err)
	}
	rec := &rrbus.TraceRecorder{Cap: 1024}
	rec.Attach(sys.Bus())
	if !sys.RunUntil(func() bool { return sys.Core(0).Done() }, 1<<20) {
		t.Fatal("run did not finish")
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no trace events")
	}
	tl := rrbus.RenderTimeline(rec.Events(), 5, 0, 60)
	if !strings.Contains(tl, "port0") {
		t.Error("timeline render")
	}
}

func TestFacadeArbiterKinds(t *testing.T) {
	cfg := rrbus.ReferenceNGMP()
	for _, k := range []rrbus.ArbiterKind{rrbus.ArbiterRR, rrbus.ArbiterTDMA, rrbus.ArbiterFP, rrbus.ArbiterLottery, rrbus.ArbiterWRR} {
		c := cfg
		c.Arbiter = k
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

// TestFacadeETBWorkflow runs §4.3 through the facade: the etb plan pads
// tblook's isolation time with nr × Eq. 1's 27, and the bound holds
// against Nc−1 rsk.
func TestFacadeETBWorkflow(t *testing.T) {
	plan, err := rrbus.GeneratorPlan("etb", rrbus.Params{"task": "tblook", "seed": 3, "count": 0})
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&rrbus.Session{}).RunAll(plan)
	if err != nil {
		t.Fatal(err)
	}
	text, err := rrbus.Render(plan, results)
	if err != nil {
		t.Fatal(err)
	}
	iso := results[0]
	bound := fmt.Sprintf("tblook %d %d 27 %d", iso.Cycles, iso.Requests, iso.Cycles+27*iso.Requests)
	lines := strings.Split(text, "\n")
	if len(lines) < 3 || !strings.HasPrefix(strings.Join(strings.Fields(lines[2]), " "), bound) {
		t.Errorf("bound row is not %q:\n%s", bound, text)
	}
	if !strings.Contains(text, "HOLDS") || !strings.Contains(text, "the bound holds in all 1 contended runs") {
		t.Errorf("bound does not hold:\n%s", text)
	}
}

// TestFacadePipeline exercises the public Plan→Run→Store→Render
// pipeline end to end: compile a plan, run it cold through a
// directory-backed store, re-run warm (zero simulations), render both
// byte-identically, round-trip the rows through a JSONL file, and reuse
// the recorded rows from an overlapping derivation plan.
func TestFacadePipeline(t *testing.T) {
	plan, err := rrbus.GeneratorPlan("fig7", rrbus.Params{"arch": "toy", "kmax": 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 14 || len(plan.JobHashes()) != 14 || plan.Hash() == "" {
		t.Fatalf("compiled plan: %d jobs, %d hashes", len(plan.Jobs), len(plan.JobHashes()))
	}

	st, err := rrbus.OpenDirStore(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}

	cold := &rrbus.Session{Store: st}
	coldResults, err := cold.RunAll(plan)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated() != 14 || cold.StoreHits() != 0 {
		t.Errorf("cold: simulated=%d hits=%d", cold.Simulated(), cold.StoreHits())
	}
	coldText, err := rrbus.Render(plan, coldResults)
	if err != nil {
		t.Fatal(err)
	}

	warm := &rrbus.Session{Store: st}
	warmResults, err := warm.RunAll(plan)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != 0 || warm.StoreHits() != 14 {
		t.Errorf("warm: simulated=%d hits=%d", warm.Simulated(), warm.StoreHits())
	}
	warmText, err := rrbus.Render(plan, warmResults)
	if err != nil {
		t.Fatal(err)
	}
	if warmText != coldText {
		t.Error("warm render differs from cold render")
	}

	// Rows round-trip through a JSONL file and re-render identically.
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	if err := rrbus.WriteResultsFile(path, coldResults); err != nil {
		t.Fatal(err)
	}
	replayed, err := rrbus.ReadResultsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrbus.CheckResults(plan, replayed); err != nil {
		t.Fatal(err)
	}
	replayText, err := rrbus.Render(plan, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if replayText != coldText {
		t.Error("replayed render differs from live render")
	}

	// An overlapping derivation plan reuses the recorded k jobs and
	// simulates only the δnop calibration.
	derive, err := rrbus.GeneratorPlan("derive", rrbus.Params{"arch": "toy", "kmax": 14})
	if err != nil {
		t.Fatal(err)
	}
	overlap := &rrbus.Session{Store: st}
	deriveResults, err := overlap.RunAll(derive)
	if err != nil {
		t.Fatal(err)
	}
	if overlap.Simulated() != 1 || overlap.StoreHits() != 14 {
		t.Errorf("overlap: simulated=%d hits=%d", overlap.Simulated(), overlap.StoreHits())
	}
	d, err := rrbus.DeriveFromResults(derive, deriveResults)
	if err != nil {
		t.Fatal(err)
	}
	if d.Err != nil {
		t.Fatalf("derivation from store-served rows failed: %v", d.Err)
	}
	if d.Res.UBDm != 6 {
		t.Errorf("derived ubdm = %d from store-served rows, want 6 (toy)", d.Res.UBDm)
	}
}

// TestFacadeDocumentAPI exercises the Plan→Run→Store→Document→Backend
// redesign end to end at the facade: the same plan renders through all
// three backends, the JSON encoding decodes back into a document that
// re-renders the identical text, and replay mismatches name the plan.
func TestFacadeDocumentAPI(t *testing.T) {
	plan, err := rrbus.GeneratorPlan("fig7", rrbus.Params{"arch": "toy", "kmax": 6})
	if err != nil {
		t.Fatal(err)
	}
	sess := &rrbus.Session{}
	results, err := sess.RunAll(plan)
	if err != nil {
		t.Fatal(err)
	}

	doc, err := rrbus.DocumentFor(plan, results)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := rrbus.Render(plan, results)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rrbus.Backends() {
		backend, err := rrbus.BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := rrbus.RenderTo(&buf, doc, backend); err != nil {
			t.Fatalf("%s backend: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s backend produced nothing", name)
		}
		if name == "text" && buf.String() != legacy {
			t.Error("text backend differs from Render")
		}
	}

	var enc strings.Builder
	jsonBackend, err := rrbus.BackendByName("json")
	if err != nil {
		t.Fatal(err)
	}
	if err := rrbus.RenderTo(&enc, doc, jsonBackend); err != nil {
		t.Fatal(err)
	}
	back, err := rrbus.DecodeDocument(strings.NewReader(enc.String()))
	if err != nil {
		t.Fatal(err)
	}
	var replay strings.Builder
	if err := rrbus.RenderTo(&replay, back, rrbus.TextBackend{}); err != nil {
		t.Fatal(err)
	}
	if replay.String() != legacy {
		t.Error("JSON round trip perturbed the text rendering")
	}

	// A mismatched replay names the plan: generator and content hash.
	_, err = rrbus.Render(plan, results[:3])
	if err == nil {
		t.Fatal("truncated replay accepted")
	}
	if !strings.Contains(err.Error(), "fig7") || !strings.Contains(err.Error(), plan.Hash()[:12]) {
		t.Errorf("replay error does not name the plan: %v", err)
	}

	// The generic results table renders identically via both spellings.
	if rrbus.RenderResultsTable(results) != rrbus.ResultsTableDocument(results).Text() {
		t.Error("results table spellings diverge")
	}
}
