package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// cancelStore cancels a context after a fixed number of Get calls —
// a deterministic stand-in for a SIGINT arriving mid-sweep.
type cancelStore struct {
	store.Store
	mu     sync.Mutex
	after  int
	cancel context.CancelFunc
}

func (c *cancelStore) Get(h string) (scenario.Result, bool, error) {
	c.mu.Lock()
	c.after--
	if c.after == 0 {
		c.cancel()
	}
	c.mu.Unlock()
	return c.Store.Get(h)
}

// TestSessionCancelResumesWarm is the kill-and-resume acceptance
// criterion: a sweep cancelled mid-run flushes the completed prefix to
// both the store and the output file, and the re-run simulates only the
// unfinished jobs while producing byte-identical full output.
func TestSessionCancelResumesWarm(t *testing.T) {
	d, err := store.OpenDir(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 8)
	cleanRows, _ := jsonlOf(t, nil, c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := &store.Session{Store: &cancelStore{Store: d, after: 4, cancel: cancel}, Workers: 1}
	path := filepath.Join(t.TempDir(), "partial.jsonl")
	if err := sess.RunToFileContext(ctx, c, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// The partial file is a valid, flushed prefix of the clean output.
	partial, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	done := len(bytes.Split(bytes.TrimSpace(partial), []byte("\n")))
	if len(partial) == 0 || done >= len(c.Jobs) {
		t.Fatalf("cancelled run flushed %d of %d rows, want a proper nonempty prefix", done, len(c.Jobs))
	}
	if !bytes.HasPrefix(cleanRows, partial) {
		t.Error("partial output is not a byte prefix of the clean output")
	}

	// Resume: only the unfinished jobs simulate, and the full output is
	// byte-identical to a never-interrupted run.
	resumed := &store.Session{Store: d}
	resumedPath := filepath.Join(t.TempDir(), "resumed.jsonl")
	if err := resumed.RunToFile(c, resumedPath); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, cleanRows) {
		t.Error("resumed output differs from a clean uninterrupted run")
	}
	if got, want := resumed.StoreHits(), int64(done); got != want {
		t.Errorf("resume hit %d jobs, want the %d flushed before the kill", got, want)
	}
	if got, want := resumed.Simulated(), int64(len(c.Jobs)-done); got != want {
		t.Errorf("resume simulated %d jobs, want %d", got, want)
	}
}

// TestSessionCountersConcurrentRuns exercises the session counters from
// concurrent Run calls (the -race half of the counters contract): two
// racing runs of the same plan against one shared store must account for
// every job as exactly one hit or one simulation.
func TestSessionCountersConcurrentRuns(t *testing.T) {
	st := store.NewMem()
	c := compileFig7(t, 10)
	sess := &store.Session{Store: st}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = sess.RunAll(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sess.Simulated()+sess.StoreHits(), int64(2*len(c.Jobs)); got != want {
		t.Errorf("simulated %d + hits %d = %d, want %d", sess.Simulated(), sess.StoreHits(), got, want)
	}
	if sess.Quarantined() != 0 || sess.Repaired() != 0 {
		t.Errorf("healthy store reported %d quarantined / %d repaired", sess.Quarantined(), sess.Repaired())
	}
}

// failStore fails Get or Put for one specific hash with a fixed error.
type failStore struct {
	store.Store
	hash   string
	getErr error
	putErr error
}

func (f *failStore) Get(h string) (scenario.Result, bool, error) {
	if h == f.hash && f.getErr != nil {
		return scenario.Result{}, false, f.getErr
	}
	return f.Store.Get(h)
}

func (f *failStore) Put(h string, r scenario.Result) error {
	if h == f.hash && f.putErr != nil {
		return f.putErr
	}
	return f.Store.Put(h, r)
}

// TestSessionErrorsNameJobAndHash pins the error-context contract: every
// store failure a session surfaces names both the failing job's plan ID
// and its content hash, for lookup and save alike.
func TestSessionErrorsNameJobAndHash(t *testing.T) {
	c := compileFig7(t, 4)
	target := 2
	hash := c.JobHashes()[target]
	id := c.Jobs[target].ID
	boom := fmt.Errorf("disk on fire")

	for _, tc := range []struct {
		name string
		st   store.Store
	}{
		{"lookup", &failStore{Store: store.NewMem(), hash: hash, getErr: boom}},
		{"save", &failStore{Store: store.NewMem(), hash: hash, putErr: boom}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := &store.Session{Store: tc.st}
			_, err := sess.RunAll(c)
			if err == nil {
				t.Fatal("store failure did not surface")
			}
			want := fmt.Sprintf("job %q (hash %s)", id, hash)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
			if !errors.Is(err, boom) {
				t.Error("wrapping lost the underlying error")
			}
		})
	}
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

// TestSessionRetriesPutPlan: a transient failure to record the plan
// manifest retries under the session's policy, like every Get and Put
// of the run, instead of failing the run.
func TestSessionRetriesPutPlan(t *testing.T) {
	c := compileFig7(t, 3)
	d, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &flakyPlans{Dir: d}
	sess := &store.Session{Store: st, Retry: store.RetryPolicy{Max: 2, BaseDelay: time.Millisecond}}
	if _, err := sess.RunAll(c); err != nil {
		t.Fatalf("run failed on a transient manifest-write error: %v", err)
	}
	if n := st.putPlans.Load(); n != 2 || sess.Retried() != 1 {
		t.Errorf("%d PutPlan calls and %d retries, want 2 and 1", n, sess.Retried())
	}
	if plans, err := d.Plans(); err != nil || len(plans) != 1 || plans[0] != c.Hash() {
		t.Errorf("recorded plans %v (err %v), want the run's plan", plans, err)
	}
}

// TestOpenDirSweepsStaleTmp checks crash-debris recovery: a stale
// writeAtomic temp file from a crashed writer is swept on open (so
// verify stays clean), while a recent temp file — possibly a live
// concurrent writer's — is left alone.
func TestOpenDirSweepsStaleTmp(t *testing.T) {
	root := filepath.Join(t.TempDir(), "results")
	d, err := store.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	c := compileFig7(t, 2)
	runAll(t, d, c)

	stale := filepath.Join(root, "jobs", ".tmp-stale123")
	fresh := filepath.Join(root, "jobs", ".tmp-fresh456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := store.OpenDir(root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale temp file survived OpenDir")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("recent temp file was swept — a live writer could lose its rename")
	}

	// With the debris gone (removing the deliberate fresh plant), the
	// store audits clean again.
	if err := os.Remove(fresh); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("store does not verify after the sweep: %+v", rep.Issues)
	}
}
