package exp

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapNOrdering(t *testing.T) {
	SetWorkers(16)
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := MapN(workers, 100, func(i int) (int, error) { return i * i, nil })
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
	out, err := MapN(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
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
	SetWorkers(8)
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 10; trial++ {
			_, err := MapN(workers, 50, fail)
			if err == nil || err.Error() != want {
				t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
			}
		}
	}
}

func TestMapNBoundedWorkers(t *testing.T) {
	// Budget (8) above the requested width (3): the explicit bound must
	// still hold.
	SetWorkers(8)
	defer SetWorkers(0)
	var cur, peak atomic.Int64
	_, err := MapN(3, 64, func(i int) (int, error) {
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

func TestNestedMapSharesBudget(t *testing.T) {
	// A batch nested inside another batch's worker must draw from the
	// same engine-wide budget: with Workers()=4, an outer 4-wide batch
	// whose jobs each fan out again must never run more than 4 inner
	// jobs concurrently (it would be 16 if nesting multiplied).
	SetWorkers(4)
	defer SetWorkers(0)
	var cur, peak atomic.Int64
	_, err := MapN(4, 8, func(int) (int, error) {
		inner, err := MapN(4, 8, func(j int) (int, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer cur.Add(-1)
			return j, nil
		})
		if err != nil {
			return 0, err
		}
		return len(inner), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent inner jobs, want <= 4 (shared budget)", p)
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(5)
	if w := Workers(); w != 5 {
		t.Fatalf("Workers() = %d after SetWorkers(5)", w)
	}
	SetWorkers(0)
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d after reset, want >= 1", w)
	}
}
