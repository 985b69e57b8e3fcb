package cpu

import (
	"testing"

	"rrbus/internal/isa"
	"rrbus/internal/statehash"
)

func digest(c *Core, now uint64) statehash.Sum {
	h := statehash.New()
	c.DigestState(&h, now)
	return h.Sum()
}

// TestDigestDoneCoreIgnoresClock pins the property that lets a run with a
// halted core reach steady state: nothing a done core holds is read again,
// so its fingerprint must not drift with the clock.
func TestDigestDoneCoreIgnoresClock(t *testing.T) {
	prog := &isa.Program{Name: "short", CodeBase: 0x1000, Body: []isa.Instr{isa.IALU(7), isa.Branch()}}
	c, p := newTestCore(t, prog, 1, 1)
	runCycles(c, p, 50, true)
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	if a, b := digest(c, 60), digest(c, 6000); a != b {
		t.Fatalf("done core digests differ across the clock: %v vs %v", a, b)
	}
}

// TestDigestBatchKeepsReadPoint checks the other side of the same rule:
// while a nop or IALU batch is in flight, Counters splits the batch at the
// core's read point, so two cores that differ only in that point must
// fingerprint differently.
func TestDigestBatchKeepsReadPoint(t *testing.T) {
	for _, in := range []isa.Instr{isa.Nop(), isa.IALU(3)} {
		t.Run(in.Op.String(), func(t *testing.T) {
			// Six identical instructions and the branch fit one fetch
			// line, so the six issue as one batch.
			body := []isa.Instr{in, in, in, in, in, in, isa.Branch()}
			inBatch := func() *Core {
				c, p := newTestCore(t, &isa.Program{Name: "run", CodeBase: 0x1000, Body: body}, 0, 1)
				// The line arrives at cycle 2, where the batch issues.
				runCycles(c, p, 3, true)
				if c.now+1 >= c.batchEnd {
					t.Fatalf("no batch in flight at cycle %d (batch ends %d)", c.now, c.batchEnd)
				}
				return c
			}
			a, b, moved := inBatch(), inBatch(), inBatch()
			moved.SyncNow(moved.now + 1)
			now := moved.now
			if digest(a, now) != digest(b, now) {
				t.Fatal("identical cores digest differently")
			}
			if digest(a, now) == digest(moved, now) {
				t.Fatal("mid-batch digest ignores the read point")
			}
		})
	}
}
