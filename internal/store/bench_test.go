package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rrbus/internal/scenario"
)

// benchDir fills a directory store with the rows of a toy fig7 sweep:
// 300 simulated rows of about 360 B per entry, near the mean entry size
// of perfbench's store-warm workload.
func benchDir(b *testing.B) (*Dir, []string) {
	b.Helper()
	c, err := scenario.CompileGenerator("fig7", scenario.Params{"arch": "toy", "kmax": 300})
	if err != nil {
		b.Fatal(err)
	}
	d, err := OpenDir(filepath.Join(b.TempDir(), "st"))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := (&Session{Store: d}).RunAll(c); err != nil {
		b.Fatal(err)
	}
	return d, c.JobHashes()
}

// BenchmarkDirGet times one Dir.Get per op, cycling over the filled
// rows, and then each of its four steps alone: reading the entry file,
// decoding the envelope, checksumming the row bytes and decoding the row.
func BenchmarkDirGet(b *testing.B) {
	d, hashes := benchDir(b)
	n := len(hashes)
	files := make([][]byte, n)
	envs := make([]entry, n)
	for i, h := range hashes {
		data, err := os.ReadFile(d.jobPath(h))
		if err != nil {
			b.Fatal(err)
		}
		files[i] = data
		if err := json.Unmarshal(data, &envs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("get", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, ok, err := d.Get(hashes[i%n]); err != nil || !ok {
				b.Fatalf("get %s: ok=%v err=%v", hashes[i%n], ok, err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, err := os.ReadFile(d.jobPath(hashes[i%n])); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("envelope", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			var e entry
			if err := json.Unmarshal(files[i%n], &e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checksum", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if sumOf(hashes[i%n], envs[i%n].Result) != envs[i%n].Sum {
				b.Fatal("checksum mismatch")
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			var r scenario.Result
			if err := json.Unmarshal(envs[i%n].Result, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDirPutPlan times recording a 40-job plan manifest. In "new"
// every call's bytes differ from the file's — two names of one plan,
// which share its hash, alternate — so each call writes; in "unchanged"
// the file already holds the bytes and the call only reads it.
func BenchmarkDirPutPlan(b *testing.B) {
	var plans []*scenario.Compiled
	for _, name := range []string{"fig7-a", "fig7-b"} {
		c, err := scenario.Compile(&scenario.Plan{Name: name, Generator: "fig7", Params: scenario.Params{"arch": "toy", "kmax": 40}})
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, c)
	}
	d, err := OpenDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("new", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if err := d.PutPlan(plans[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unchanged", func(b *testing.B) {
		if err := d.PutPlan(plans[0]); err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if err := d.PutPlan(plans[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
