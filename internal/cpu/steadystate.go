package cpu

import "rrbus/internal/statehash"

// This file is the core side of the simulator's steady-state period
// memoization (internal/sim/steadystate.go).

// MaxIters returns the core's iteration bound (0 = run forever). The
// steady-state detector clamps its leap so no bounded core reaches the
// bound mid-extrapolation: the done transition is a state change, not a
// counter, and must execute live.
func (c *Core) MaxIters() uint64 { return c.maxIters }

// DigestState mixes the core's complete behavioral state into h, with
// absolute cycles expressed relative to now (the system cycle the digest is
// taken at), so that recurring states hash equal no matter where on the
// time axis they occur. Observables — the activity counters and the store
// buffer's Pushes/FullStalls/Drains — are excluded; they are handled by
// snapshot/delta (AddCounters). Iters in particular is monotone and never
// recurs. The caches digest themselves (Cache.DigestState), and a request
// the core has live at the bus is digested by the bus.
func (c *Core) DigestState(h *statehash.Hash, now uint64) {
	h.Add(uint64(c.st))
	h.AddBool(c.inSetup)
	h.Add(uint64(c.pc))
	h.AddBool(c.done)
	h.Add(c.fetchLine)
	h.AddBool(c.haveFetch)
	h.Add(c.commitAddr)
	h.Add(c.pendingAddr)
	if c.st != sDone {
		h.Add(c.nextFree - now)
	} else {
		// nextFree is stale once the core finished: nothing reads it, and
		// its distance to the advancing clock would otherwise grow forever
		// and block every future match.
		h.Add(0)
	}
	if c.now < c.batchEnd {
		// The read point and the batch's start pc and cycle fix the
		// counter split (batchTail); batchEnd is nextFree, hashed above.
		h.Add(now - c.now)
		h.Add(now - c.batchStart)
		h.Add(uint64(c.batchPC))
	} else {
		// The batch markers and the read point are stale: Counters reads
		// them only while c.now < batchEnd, c.now only moves forward
		// (Tick, SyncNow), and the next batch rewrites all of them
		// together. Same growing-distance hazard as nextFree: a done or
		// waiting core is not ticked, so its c.now falls ever further
		// behind the clock.
		h.Add(0)
	}
	h.Add(uint64(c.stallKind))
	if c.stallKind != stallNone {
		h.Add(now - c.stallFrom)
	}
	sb := c.sb
	h.Add(uint64(sb.n))
	h.AddBool(sb.inflight)
	for i := 0; i < sb.n; i++ {
		j := sb.head + i
		if j >= sb.capacity {
			j -= sb.capacity
		}
		h.Add(sb.buf[j])
	}
}

// ShiftTime moves every absolute-cycle quantity the core holds forward by
// d, as part of a steady-state leap of d cycles. Stale fields (nextFree
// after sDone, batch markers after the batch issued, stallFrom with no open
// span) shift too: a uniform shift preserves every comparison against the
// equally shifted clock, staleness included.
func (c *Core) ShiftTime(d uint64) {
	c.nextFree += d
	c.batchEnd += d
	c.batchStart += d
	c.now += d
	c.stallFrom += d
}

// AddCounters adds k times the per-period delta d into the core's
// counters — the core part of extrapolating k whole steady-state periods.
// The delta was taken between batch-split-adjusted Counters() reads at
// state-identical points, where the adjustment recurs identically, so
// applying it to the raw counters is exact. The store buffer's exported
// counters are applied by the caller directly.
func (c *Core) AddCounters(d Counters, k uint64) {
	c.ctr.Instrs += d.Instrs * k
	c.ctr.Loads += d.Loads * k
	c.ctr.Stores += d.Stores * k
	c.ctr.Nops += d.Nops * k
	c.ctr.ALUs += d.ALUs * k
	c.ctr.Branches += d.Branches * k
	c.ctr.Iters += d.Iters * k
	c.ctr.SBStallCycles += d.SBStallCycles * k
	c.ctr.PortStallCycles += d.PortStallCycles * k
}
