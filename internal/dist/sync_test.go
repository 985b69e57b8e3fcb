package dist_test

import (
	"context"
	"io/fs"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rrbus/internal/dist"
	"rrbus/internal/scenario"
	"rrbus/internal/serve"
	"rrbus/internal/store"
)

// hashOf fabricates a distinct 64-char pseudo-hash so Dir stores shard
// it like a real digest.
func hashOf(seed string) string {
	return (seed + strings.Repeat("0", 64))[:64]
}

// TestPushPullExactDelta pins the sync contract: push ships exactly the
// rows the server is missing, pull fetches exactly the rows the local
// store is missing, and a repeated sync in either direction transfers
// nothing.
func TestPushPullExactDelta(t *testing.T) {
	remote, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hA, hB, hC, hD := hashOf("aa"), hashOf("bb"), hashOf("cc"), hashOf("dd")
	rows := map[string]scenario.Result{
		hA: {Cycles: 1}, hB: {Cycles: 2}, hC: {Cycles: 3}, hD: {Cycles: 4},
	}
	for _, h := range []string{hB, hD} {
		if err := remote.Put(h, rows[h]); err != nil {
			t.Fatal(err)
		}
	}
	srv := serve.New(remote, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	local := store.NewMem()
	for _, h := range []string{hA, hB, hC} {
		if err := local.Put(h, rows[h]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	// Push: the server is missing exactly {A, C}.
	rep, err := dist.Push(ctx, local, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalRows != 3 || rep.RemoteRows != 2 || rep.Transferred != 2 || rep.Duplicate != 0 || rep.Rejected != 0 {
		t.Fatalf("push report %+v, want 3 local / 2 remote / 2 transferred", rep)
	}
	remoteHashes, err := remote.JobHashes()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{hA, hB, hC, hD}
	sort.Strings(want)
	if len(remoteHashes) != 4 {
		t.Fatalf("remote holds %d rows after push, want 4", len(remoteHashes))
	}
	for i, h := range want {
		if remoteHashes[i] != h {
			t.Fatalf("remote hashes %v, want %v", remoteHashes, want)
		}
	}
	// Pushed rows survive the remote store's own integrity verification.
	for h, r := range rows {
		if h == hD {
			continue
		}
		got, ok, err := remote.Get(h)
		if err != nil || !ok {
			t.Fatalf("remote Get(%s) = (%v, %v)", h, ok, err)
		}
		if got.Cycles != r.Cycles {
			t.Fatalf("remote row %s cycles %d, want %d", h, got.Cycles, r.Cycles)
		}
	}

	// Re-push: nothing to do.
	rep, err = dist.Push(ctx, local, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transferred != 0 {
		t.Fatalf("second push transferred %d rows, want 0", rep.Transferred)
	}

	// Pull: the local store is missing exactly {D}.
	rep, err = dist.Pull(ctx, local, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transferred != 1 {
		t.Fatalf("pull transferred %d rows, want exactly the missing row", rep.Transferred)
	}
	if got, ok, err := local.Get(hD); err != nil || !ok || got.Cycles != 4 {
		t.Fatalf("pulled row = (%+v, %v, %v), want cycles 4", got, ok, err)
	}
	rep, err = dist.Pull(ctx, local, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transferred != 0 {
		t.Fatalf("second pull transferred %d rows, want 0", rep.Transferred)
	}
}

// TestPushRejectedByRemoteGate: the server's push endpoint runs the same
// DecodeRow gate as the work path, so a corrupted wire row is refused
// and reported, never recorded.
func TestPushRejectedByRemoteGate(t *testing.T) {
	remote, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(remote, serve.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	// Hand-roll a push with a tampered row (the Push helper cannot
	// produce one — it wires rows from a verified local store).
	bad, err := dist.WireRow(hashOf("ee"), scenario.Result{Cycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	bad.Result = []byte(`{"cycles": 6}`)
	client := ts.Client()
	resp, err := client.Post(ts.URL+"/v1/store/jobs", "application/json",
		strings.NewReader(`{"rows": [{"hash": "`+bad.Hash+`", "sum": "`+bad.Sum+`", "result": `+string(bad.Result)+`}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("push HTTP %d", resp.StatusCode)
	}
	if n, _ := remote.Len(); n != 0 {
		t.Fatalf("remote recorded %d rows from a corrupt push, want 0", n)
	}
}

// filesOutside lists the regular files under top that are not under
// root.
func filesOutside(t *testing.T, top, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(top, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && !strings.HasPrefix(p, root+string(filepath.Separator)) {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSyncRefusesPathTraversal: a row whose hash is a path, pushed to a
// server or pulled from one, is refused by the directory store that
// would file it, and no file appears outside that store's root — the
// hash names a file three levels up.
func TestSyncRefusesPathTraversal(t *testing.T) {
	const evil = "../../../x"
	ctx := context.Background()

	t.Run("push", func(t *testing.T) {
		top := t.TempDir()
		root := filepath.Join(top, "a", "st")
		remote, err := store.OpenDir(root)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(remote, serve.Options{})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Drain()

		local := store.NewMem()
		if err := local.Put(evil, scenario.Result{Cycles: 1}); err != nil {
			t.Fatal(err)
		}
		rep, err := dist.Push(ctx, local, ts.URL, nil)
		if err == nil || rep.Rejected != 1 || rep.Transferred != 0 {
			t.Errorf("push report %+v, err %v; want the row rejected", rep, err)
		}
		if out := filesOutside(t, filepath.Dir(top), root); len(out) != 0 {
			t.Errorf("push wrote outside the store root: %v", out)
		}
	})

	t.Run("pull", func(t *testing.T) {
		remote := store.NewMem()
		if err := remote.Put(evil, scenario.Result{Cycles: 1}); err != nil {
			t.Fatal(err)
		}
		srv := serve.New(remote, serve.Options{})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Drain()

		top := t.TempDir()
		root := filepath.Join(top, "a", "st")
		local, err := store.OpenDir(root)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dist.Pull(ctx, local, ts.URL, nil)
		if err == nil || rep.Transferred != 0 {
			t.Errorf("pull report %+v, err %v; want the row refused", rep, err)
		}
		if out := filesOutside(t, filepath.Dir(top), root); len(out) != 0 {
			t.Errorf("pull wrote outside the store root: %v", out)
		}
	})
}
