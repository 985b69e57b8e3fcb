package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrbus/internal/exp"
	"rrbus/internal/report"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// compileFig7 compiles a small toy-platform fig7 sweep (the canonical
// shardable job list).
func compileFig7(t *testing.T, kmax int) *scenario.Compiled {
	t.Helper()
	c, err := scenario.CompileGenerator("fig7", scenario.Params{"arch": "toy", "kmax": kmax})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runAll runs a plan through a session backed by st and returns the
// results plus the rendered figure text.
func runAll(t *testing.T, st store.Store, c *scenario.Compiled) ([]scenario.Result, string, *store.Session) {
	t.Helper()
	sess := &store.Session{Store: st}
	results, err := sess.RunAll(c)
	if err != nil {
		t.Fatal(err)
	}
	text, err := report.Render(c.Generator(), c.Jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	return results, text, sess
}

// jsonlOf streams a plan through a store-backed session into JSONL bytes.
func jsonlOf(t *testing.T, st store.Store, c *scenario.Compiled) ([]byte, *store.Session) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	sess := &store.Session{Store: st}
	if err := sess.RunToFile(c, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, sess
}

// TestStoreHitMissByteIdentical is the pipeline's core property: a cold
// run (all misses), a warm run (all hits) and a storeless run of the
// same plan render byte-identical figure text and emit byte-identical
// JSONL rows — and the warm run performs zero simulations.
func TestStoreHitMissByteIdentical(t *testing.T) {
	for _, impl := range []struct {
		name string
		open func(t *testing.T) store.Store
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMem() }},
		{"dir", func(t *testing.T) store.Store {
			d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(impl.name, func(t *testing.T) {
			c := compileFig7(t, 6)
			st := impl.open(t)

			_, baseText, _ := runAll(t, nil, c)

			_, coldText, cold := runAll(t, st, c)
			if got, want := cold.Simulated(), int64(len(c.Jobs)); got != want {
				t.Errorf("cold run simulated %d jobs, want %d", got, want)
			}
			if cold.StoreHits() != 0 {
				t.Errorf("cold run reported %d hits", cold.StoreHits())
			}
			if coldText != baseText {
				t.Error("cold store-backed render differs from storeless render")
			}

			_, warmText, warm := runAll(t, st, c)
			if warm.Simulated() != 0 {
				t.Errorf("warm run simulated %d jobs, want 0", warm.Simulated())
			}
			if got, want := warm.StoreHits(), int64(len(c.Jobs)); got != want {
				t.Errorf("warm run hit %d jobs, want %d", got, want)
			}
			if warmText != coldText {
				t.Error("store-hit render differs from store-miss render")
			}

			coldRows, _ := jsonlOf(t, nil, c)
			warmRows, warmSess := jsonlOf(t, st, c)
			if warmSess.Simulated() != 0 {
				t.Errorf("warm JSONL run simulated %d jobs", warmSess.Simulated())
			}
			if !bytes.Equal(coldRows, warmRows) {
				t.Error("store-served JSONL differs from fresh JSONL")
			}
		})
	}
}

// TestOverlapReuse checks cross-plan reuse — the property the store is
// designed around: a derivation sweep whose k jobs overlap an earlier
// fig7 sweep simulates only the δnop calibration, and its derivation
// output is byte-identical to a cold derivation.
func TestOverlapReuse(t *testing.T) {
	st := store.NewMem()
	fig7 := compileFig7(t, 8)
	if _, _, sess := runAll(t, st, fig7); sess.Simulated() != int64(len(fig7.Jobs)) {
		t.Fatalf("fig7 fill simulated %d jobs", sess.Simulated())
	}

	derive, err := scenario.CompileGenerator("derive", scenario.Params{"arch": "toy", "kmax": 8})
	if err != nil {
		t.Fatal(err)
	}
	_, warmText, warm := runAll(t, st, derive)
	if warm.Simulated() != 1 {
		t.Errorf("overlapping derivation simulated %d jobs, want 1 (the δnop calibration)", warm.Simulated())
	}
	if got, want := warm.StoreHits(), int64(len(derive.Jobs)-1); got != want {
		t.Errorf("overlapping derivation hit %d jobs, want %d", got, want)
	}

	_, coldText, _ := runAll(t, nil, derive)
	if warmText != coldText {
		t.Error("store-overlapped derivation differs from cold derivation")
	}
}

// TestSessionRelabelsStoredRows checks that a row recorded under one
// plan is served under another plan's job ID (stored rows are
// content-addressed and carry no labeling).
func TestSessionRelabelsStoredRows(t *testing.T) {
	st := store.NewMem()
	fig7 := compileFig7(t, 3)
	runAll(t, st, fig7)

	r, ok, err := st.Get(fig7.JobHashes()[0])
	if err != nil || !ok {
		t.Fatalf("stored row missing: ok=%v err=%v", ok, err)
	}
	if r.ID != "" {
		t.Errorf("stored row carries ID %q; the store must strip labeling", r.ID)
	}

	derive, err := scenario.CompileGenerator("derive", scenario.Params{"arch": "toy", "kmax": 3})
	if err != nil {
		t.Fatal(err)
	}
	results, _, _ := runAll(t, st, derive)
	if got := results[1].ID; got != derive.Jobs[1].ID {
		t.Errorf("served row ID = %q, want the requesting plan's %q", got, derive.Jobs[1].ID)
	}
}

// corrupt flips one bit inside the stored row bytes of some entry under
// the store root and returns the path it damaged.
func corrupt(t *testing.T, root string) string {
	t.Helper()
	var target string
	err := filepath.WalkDir(filepath.Join(root, "jobs"), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && target == "" {
			target = p
		}
		return nil
	})
	if err != nil || target == "" {
		t.Fatalf("no entry to corrupt (err=%v)", err)
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"cycles"`))
	if i < 0 {
		t.Fatal("entry has no cycles field")
	}
	data[i+9] ^= 0x01 // flip a bit inside the recorded value
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return target
}

// TestCorruptionHeals checks both halves of the integrity contract. At
// the store layer a bit-flipped entry is a typed CorruptError — never a
// silent miss (re-simulating without a trace) and never a hit (deriving
// a wrong bound from damaged bytes). At the session layer that same
// corruption self-heals: the entry is quarantined, the job re-simulated,
// the output byte-identical to an undamaged run, and the store verifies
// clean afterwards.
func TestCorruptionHeals(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 4)
	_, cleanText, _ := runAll(t, d, c)
	corrupt(t, root)

	hit := false
	for _, h := range c.JobHashes() {
		if _, _, err := d.Get(h); err != nil {
			if !store.IsCorrupt(err) || !strings.Contains(err.Error(), "integrity") {
				t.Errorf("corruption error is not a CorruptError naming integrity: %v", err)
			}
			hit = true
		}
	}
	if !hit {
		t.Fatal("no Get reported the corrupted entry")
	}

	_, healedText, sess := runAll(t, d, c)
	if healedText != cleanText {
		t.Error("healed run renders differently from the clean run")
	}
	if sess.Quarantined() != 1 || sess.Repaired() != 1 {
		t.Errorf("healing run quarantined %d / repaired %d entries, want 1/1",
			sess.Quarantined(), sess.Repaired())
	}
	if sess.Simulated() != 1 {
		t.Errorf("healing run simulated %d jobs, want just the damaged one", sess.Simulated())
	}
	if got, want := sess.StoreHits(), int64(len(c.Jobs)-1); got != want {
		t.Errorf("healing run hit %d jobs, want %d", got, want)
	}

	// The store is whole again: verify passes and the quarantine records
	// the damaged entry as healed.
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("store does not verify after healing: %+v", rep.Issues)
	}
	qs, err := d.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || !qs[0].Healed || !strings.Contains(qs[0].Reason, "integrity") {
		t.Errorf("quarantine listing = %+v, want one healed entry with an integrity reason", qs)
	}

	// Without a Quarantiner the same corruption must still be fatal —
	// healing is a capability of the store, not a license to ignore
	// damage.
	corrupt(t, root)
	strict := &store.Session{Store: noQuarantine{d}}
	if _, err := strict.RunAll(c); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("session served a corrupted store without quarantine support: err=%v", err)
	}
	if !strings.Contains(err2str(strict, c), "hash ") {
		t.Error("store error does not name the job content hash")
	}
}

// TestReframedEntryHeals: an entry whose bytes leave the store's
// framing — re-indented, or with its keys reordered — is corrupt even
// though its JSON still holds the right row under the right checksum,
// and a Session heals it: one entry quarantined and repaired, the render
// and the rewritten entry byte-identical to the clean ones.
func TestReframedEntryHeals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout string
	}{
		{"reindented", "{\n  \"schema\": %s,\n  \"hash\": %s,\n  \"sum\": %s,\n  \"result\": %s\n}\n"},
		{"reordered", `{"hash":%[2]s,"schema":%[1]s,"sum":%[3]s,"result":%[4]s}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := filepath.Join(t.TempDir(), "results")
			d, err := store.OpenDir(root)
			if err != nil {
				t.Fatal(err)
			}
			c := compileFig7(t, 4)
			_, cleanText, _ := runAll(t, d, c)
			h := c.JobHashes()[2]
			path := filepath.Join(root, "jobs", h[:2], h+".json")
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var e map[string]json.RawMessage
			if err := json.Unmarshal(clean, &e); err != nil {
				t.Fatal(err)
			}
			reframed := fmt.Sprintf(tc.layout, e["schema"], e["hash"], e["sum"], e["result"])
			if err := os.WriteFile(path, []byte(reframed), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.Get(h); !store.IsCorrupt(err) {
				t.Fatalf("get of the %s entry: %v, want a CorruptError", tc.name, err)
			}

			_, healedText, sess := runAll(t, d, c)
			if healedText != cleanText {
				t.Error("healed run renders differently from the clean run")
			}
			if sess.Quarantined() != 1 || sess.Repaired() != 1 {
				t.Errorf("healing run quarantined %d / repaired %d entries, want 1/1", sess.Quarantined(), sess.Repaired())
			}
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(healed, clean) {
				t.Errorf("healed entry\n%s\nwant\n%s", healed, clean)
			}
		})
	}
}

// noQuarantine hides a Dir's Quarantiner implementation.
type noQuarantine struct{ d *store.Dir }

func (n noQuarantine) Get(h string) (scenario.Result, bool, error) { return n.d.Get(h) }
func (n noQuarantine) Put(h string, r scenario.Result) error       { return n.d.Put(h, r) }

// err2str re-runs the plan and formats the error (empty if none) — used
// to assert the job-ID + content-hash error wrapping.
func err2str(s *store.Session, c *scenario.Compiled) string {
	_, err := s.RunAll(c)
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDirStoreSchemaReject checks that entries written by a newer build
// are refused instead of mis-read.
func TestDirStoreSchemaReject(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 2)
	runAll(t, d, c)

	// Rewrite one entry claiming a future schema.
	var target string
	filepath.WalkDir(filepath.Join(root, "jobs"), func(p string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && target == "" {
			target = p
		}
		return nil
	})
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	newer := bytes.Replace(data, []byte(`{"schema":1,`), []byte(`{"schema":99,`), 1)
	if bytes.Equal(newer, data) {
		t.Fatal("entry schema field not found")
	}
	if err := os.WriteFile(target, newer, 0o644); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, h := range c.JobHashes() {
		if _, _, err := d.Get(h); err != nil {
			if !strings.Contains(err.Error(), "schema") {
				t.Errorf("future-schema error: %v", err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("future-schema entry was accepted")
	}
}

// TestDirStorePlanManifests checks the plan index: every plan a session
// runs is recorded under its plan hash.
func TestDirStorePlanManifests(t *testing.T) {
	d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 2)
	runAll(t, d, c)
	plans, err := d.Plans()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0] != c.Hash() {
		t.Fatalf("plans = %v, want [%s]", plans, c.Hash())
	}
	n, err := d.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(c.Jobs) {
		t.Errorf("store holds %d rows, want %d", n, len(c.Jobs))
	}
}

// statTree walks root and stats every path under it, directories
// included (a rename inside plans/ moves the directory's mtime).
func statTree(t *testing.T, root string) map[string]os.FileInfo {
	t.Helper()
	out := map[string]os.FileInfo{}
	err := filepath.WalkDir(root, func(p string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		out[p] = info
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmRunWritesNothing checks that a warm re-run only reads a
// directory store: every path keeps its inode and mtime, and no path
// appears or disappears — the recorded plan manifest is left in place.
func TestWarmRunWritesNothing(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 4)
	runAll(t, d, c)
	before := statTree(t, root)

	if _, _, warm := runAll(t, d, c); warm.Simulated() != 0 {
		t.Fatalf("warm run simulated %d jobs", warm.Simulated())
	}
	after := statTree(t, root)
	if len(after) != len(before) {
		t.Errorf("warm run changed the tree from %d to %d paths", len(before), len(after))
	}
	for p, b := range before {
		a, ok := after[p]
		switch {
		case !ok:
			t.Errorf("%s: removed by the warm run", p)
		case !os.SameFile(a, b):
			t.Errorf("%s: replaced by the warm run (new inode)", p)
		case !a.ModTime().Equal(b.ModTime()):
			t.Errorf("%s: modified by the warm run (mtime %v → %v)", p, b.ModTime(), a.ModTime())
		}
	}
}

// TestPlanManifestLastWriterWins checks that the manifest skip compares
// bytes, not existence: a plan hash covers only the job hashes, so the
// same plan recorded under a second name shares the manifest path, and
// the second run must rewrite it.
func TestPlanManifestLastWriterWins(t *testing.T) {
	d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 3)
	runAll(t, d, c)
	renamed, err := scenario.Compile(&scenario.Plan{Name: "fig7-renamed", Generator: c.Spec.Generator, Params: c.Spec.Params})
	if err != nil {
		t.Fatal(err)
	}
	if renamed.Hash() != c.Hash() {
		t.Fatalf("renamed plan hash %s, want %s", renamed.Hash(), c.Hash())
	}
	if got := d.PlanInfo(c.Hash()).Name; got != "fig7" {
		t.Fatalf("first run recorded name %q, want fig7", got)
	}
	runAll(t, d, renamed)
	if got := d.PlanInfo(c.Hash()).Name; got != "fig7-renamed" {
		t.Errorf("after the renamed run the manifest names %q, want fig7-renamed", got)
	}
}

// TestDamagedPlanManifestRewritten checks that a manifest damaged out of
// band differs from the fresh bytes, so the next run rewrites it and the
// store audits clean again.
func TestDamagedPlanManifestRewritten(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"truncated", func(data []byte) []byte { return data[:len(data)/2] }},
		{"future-schema", func(data []byte) []byte {
			return bytes.Replace(data, []byte(`"schema": 1,`), []byte(`"schema": 99,`), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
			if err != nil {
				t.Fatal(err)
			}
			c := compileFig7(t, 3)
			runAll(t, d, c)
			path := filepath.Join(d.Root(), "plans", c.Hash()+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := tc.damage(data)
			if bytes.Equal(damaged, data) {
				t.Fatal("damage left the manifest unchanged")
			}
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if rep, err := d.Verify(); err != nil || rep.OK() {
				t.Fatalf("verify before the re-run: %+v, %v; want the damaged manifest reported", rep, err)
			}

			runAll(t, d, c)
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(healed, data) {
				t.Errorf("re-run left the manifest as\n%s\nwant\n%s", healed, data)
			}
			rep, err := d.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("verify after the re-run: %+v", rep.Issues)
			}
		})
	}
}

// TestSessionRunAllRefusesShard checks RunAll's partial-series guard: a
// sharded session must stream to a sink, not collect a series with rows
// missing by construction.
func TestSessionRunAllRefusesShard(t *testing.T) {
	c := compileFig7(t, 4)
	sess := &store.Session{Shard: exp.Shard{Index: 0, Count: 2}}
	if _, err := sess.RunAll(c); err == nil {
		t.Fatal("sharded RunAll did not refuse")
	}
}
