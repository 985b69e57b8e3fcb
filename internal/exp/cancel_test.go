package exp_test

import (
	"context"
	"errors"
	"testing"

	"rrbus/internal/exp"
)

// collect returns a sink appending emitted indices to *got, failing the
// test if delivery ever leaves ascending contiguous order.
func collect(t *testing.T, got *[]int) exp.Sink[int] {
	t.Helper()
	return exp.SinkFunc[int](func(i int, v int) error {
		if v != i {
			t.Errorf("job %d emitted value %d", i, v)
		}
		if len(*got) > 0 && (*got)[len(*got)-1] >= i {
			t.Errorf("out-of-order emit: %d after %v", i, *got)
		}
		*got = append(*got, i)
		return nil
	})
}

// TestStreamCancelSerialDrains pins the serial half of the cancellation
// contract: cancelling mid-stream finishes and emits the job that was
// running, then stops between jobs with ctx.Err().
func TestStreamCancelSerialDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	err := exp.StreamShard(ctx, exp.Shard{}, 1, 10, func(i int) (int, error) {
		if i == 4 {
			cancel()
		}
		return i, nil
	}, collect(t, &got))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != 5 || got[4] != 4 {
		t.Errorf("emitted %v, want the prefix 0..4 (the cancelling job included)", got)
	}
}

// TestStreamCancelParallelDrains pins the parallel half: after cancel no
// new jobs launch, in-flight jobs run to completion, and their
// contiguous prefix is emitted before ctx.Err() comes back.
func TestStreamCancelParallelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 40
	var got []int
	err := exp.StreamShard(ctx, exp.Shard{}, 4, n, func(i int) (int, error) {
		if i == 0 {
			cancel()
		} else {
			// Every other in-flight job holds until the cancellation, so
			// the drain — not luck — decides what completes.
			<-ctx.Done()
		}
		return i, nil
	}, collect(t, &got))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) == 0 || len(got) >= n {
		t.Errorf("emitted %d jobs, want a proper prefix of %d", len(got), n)
	}
	for k, i := range got {
		if i != k {
			t.Fatalf("emitted %v, want a contiguous prefix from 0", got)
		}
	}
}

// TestStreamPreCancelled checks that an already-cancelled context runs
// nothing at all, serial and parallel alike.
func TestStreamPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := 0
		err := exp.StreamShard(ctx, exp.Shard{}, workers, 8, func(i int) (int, error) {
			ran++
			return i, nil
		}, exp.SinkFunc[int](func(int, int) error { return nil }))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Errorf("workers=%d: %d jobs ran under a pre-cancelled context", workers, ran)
		}
	}
}

// TestStreamCancelAfterLastJobIsSuccess pins a deliberate edge: a stream
// that delivered everything is a success even if the context was
// cancelled during its final job — cancellation is only reported when it
// actually cut the output short.
func TestStreamCancelAfterLastJobIsSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	err := exp.StreamShard(ctx, exp.Shard{}, 1, 3, func(i int) (int, error) {
		if i == 2 {
			cancel()
		}
		return i, nil
	}, collect(t, &got))
	if err != nil {
		t.Fatalf("fully delivered stream returned %v", err)
	}
	if len(got) != 3 {
		t.Errorf("emitted %v, want all 3", got)
	}
}

// TestStreamNilContext checks nil means "never cancelled".
func TestStreamNilContext(t *testing.T) {
	var got []int
	//lint:ignore SA1012 the nil context is the documented "no cancellation" form
	if err := exp.StreamShard(nil, exp.Shard{}, 2, 5, func(i int) (int, error) { return i, nil }, collect(t, &got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("emitted %v, want all 5", got)
	}
}
