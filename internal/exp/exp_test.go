package exp

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// mapN collects a whole unsharded StreamShard batch in job order; nil
// results on failure, like every batch caller that needs the complete
// output.
func mapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	var out []T
	err := StreamShard(context.Background(), Shard{}, workers, n, fn, SinkFunc[T](func(i int, v T) error {
		if i != len(out) {
			return fmt.Errorf("job %d emitted after %d results", i, len(out))
		}
		out = append(out, v)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestMapNOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := mapN(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNEmpty(t *testing.T) {
	ran := false
	out, err := mapN(4, 0, func(int) (int, error) { ran = true; return 0, nil })
	if err != nil || out != nil || ran {
		t.Fatalf("empty batch: out=%v err=%v ran=%v", out, err, ran)
	}
}

func TestMapNDeterministicError(t *testing.T) {
	// The lowest-indexed failure must win regardless of worker count or
	// scheduling.
	fail := func(i int) (int, error) {
		if i == 7 || i == 23 || i == 3 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}
	want := "job 3 failed"
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 10; trial++ {
			_, err := mapN(workers, 50, fail)
			if err == nil || err.Error() != want {
				t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
			}
		}
	}
}

func TestMapNBoundedWorkers(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := mapN(3, 64, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent jobs, want <= 3", p)
	}
}
