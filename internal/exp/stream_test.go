package exp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rrbus/internal/exp"
)

func TestStreamOrderedDelivery(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 3, 8} {
		var got []int
		err := exp.StreamShard(context.Background(), exp.Shard{}, workers, n, func(i int) (int, error) {
			// Finish out of submission order to force the dispatcher to
			// buffer and reorder.
			time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
			return i * i, nil
		}, exp.SinkFunc[int](func(i, v int) error {
			if v != i*i {
				t.Errorf("workers=%d: job %d delivered value %d", workers, i, v)
			}
			got = append(got, i)
			return nil
		}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emission order %v not ascending", workers, got)
			}
		}
	}
}

func TestStreamErrorSemantics(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var emitted []int
		err := exp.StreamShard(context.Background(), exp.Shard{}, workers, 20, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			return i, nil
		}, exp.SinkFunc[int](func(i, v int) error {
			emitted = append(emitted, i)
			return nil
		}))
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		for _, i := range emitted {
			if i >= 7 {
				t.Errorf("workers=%d: emitted job %d at or beyond the failure", workers, i)
			}
		}
	}
}

func TestStreamSinkErrorAborts(t *testing.T) {
	abort := errors.New("sink full")
	for _, workers := range []int{1, 4} {
		count := 0
		err := exp.StreamShard(context.Background(), exp.Shard{}, workers, 50, func(i int) (int, error) { return i, nil },
			exp.SinkFunc[int](func(i, v int) error {
				count++
				if i == 5 {
					return abort
				}
				return nil
			}))
		if !errors.Is(err, abort) {
			t.Fatalf("workers=%d: err = %v, want sink error", workers, err)
		}
		if count != 6 {
			t.Errorf("workers=%d: sink saw %d emissions, want 6 (0..5)", workers, count)
		}
	}
}

func TestShardOwnership(t *testing.T) {
	const n = 23
	seen := map[int]int{}
	for idx := 0; idx < 3; idx++ {
		shard := exp.Shard{Index: idx, Count: 3}
		err := exp.StreamShard(context.Background(), shard, 4, n, func(i int) (int, error) { return i, nil },
			exp.SinkFunc[int](func(i, v int) error {
				if !shard.Owns(i) {
					t.Errorf("shard %v emitted foreign job %d", shard, i)
				}
				seen[i]++
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("job %d ran %d times across shards, want exactly once", i, seen[i])
		}
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want exp.Shard
		ok   bool
	}{
		{"", exp.Shard{}, true},
		{"0/1", exp.Shard{Index: 0, Count: 1}, true},
		{"0/2", exp.Shard{Index: 0, Count: 2}, true},
		{"1/2", exp.Shard{Index: 1, Count: 2}, true},
		{"3/8", exp.Shard{Index: 3, Count: 8}, true},
		{"2/2", exp.Shard{}, false},
		{"1/1", exp.Shard{}, false},
		{"-1/2", exp.Shard{}, false},
		{"1", exp.Shard{}, false},
		{"a/b", exp.Shard{}, false},
		{"1/0", exp.Shard{}, false},
	} {
		got, err := exp.ParseShard(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseShard(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestJSONLShardMergeByteIdentical is the engine-level half of the
// acceptance criterion: streaming a batch as 2 shards into JSONL and
// merging reproduces the unsharded file byte for byte.
func TestJSONLShardMergeByteIdentical(t *testing.T) {
	const n = 17
	type row struct {
		K     int     `json:"k"`
		Value float64 `json:"value"`
	}
	run := func(shard exp.Shard) string {
		var buf bytes.Buffer
		sink := exp.NewJSONLSink[row](&buf)
		err := exp.StreamShard(context.Background(), shard, 4, n, func(i int) (row, error) {
			return row{K: i + 1, Value: float64(i) * 1.5}, nil
		}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	full := run(exp.Shard{})
	s0 := run(exp.Shard{Index: 0, Count: 2})
	s1 := run(exp.Shard{Index: 1, Count: 2})

	var merged bytes.Buffer
	if err := exp.MergeJSONL(&merged, strings.NewReader(s0), strings.NewReader(s1)); err != nil {
		t.Fatal(err)
	}
	if merged.String() != full {
		t.Errorf("merged shards differ from unsharded run:\n--- full ---\n%s--- merged ---\n%s", full, merged.String())
	}

	idx, vals, err := exp.ReadJSONL[row](strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != n || len(vals) != n {
		t.Fatalf("ReadJSONL returned %d rows, want %d", len(idx), n)
	}
	for i := range idx {
		if idx[i] != i || vals[i].K != i+1 {
			t.Fatalf("row %d decoded as idx=%d k=%d", i, idx[i], vals[i].K)
		}
	}
}

func TestMergeJSONLRejectsDuplicates(t *testing.T) {
	a := "{\"i\":0,\"v\":1}\n{\"i\":2,\"v\":1}\n"
	b := "{\"i\":2,\"v\":1}\n"
	var out bytes.Buffer
	if err := exp.MergeJSONL(&out, strings.NewReader(a), strings.NewReader(b)); err == nil {
		t.Fatal("merge accepted duplicate index 2")
	}
}
