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
// rows, and then each of the four steps it takes after checking the hash
// and joining the path: reading the entry file into a pooled buffer,
// cutting the framing, checksumming the row bytes and decoding the row
// with scenario.DecodeResult. row-json decodes the row with
// json.Unmarshal, the reference DecodeResult replaced.
func BenchmarkDirGet(b *testing.B) {
	d, hashes := benchDir(b)
	n := len(hashes)
	paths := make([]string, n)
	files := make([][]byte, n)
	frames := make([]frame, n)
	for i, h := range hashes {
		paths[i] = d.jobPath(h)
		data, err := os.ReadFile(paths[i])
		if err != nil {
			b.Fatal(err)
		}
		f, ok := cutEntry(data)
		if !ok {
			b.Fatalf("entry %s is not in the framing", h)
		}
		files[i], frames[i] = data, f
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
			buf, err := readEntry(paths[i%n])
			if err != nil {
				b.Fatal(err)
			}
			releaseEntry(buf)
		}
	})
	b.Run("frame", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, ok := cutEntry(files[i%n]); !ok {
				b.Fatal("entry is not in the framing")
			}
		}
	})
	b.Run("checksum", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			f := frames[i%n]
			if got := rowSum(f.hash, f.row); string(got[:]) != string(f.sum) {
				b.Fatal("checksum mismatch")
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, err := scenario.DecodeResult(frames[i%n].row); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("row-json", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			var r scenario.Result
			if err := json.Unmarshal(frames[i%n].row, &r); err != nil {
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
