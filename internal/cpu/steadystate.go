package cpu

import "rrbus/internal/statehash"

// This file is the core side of the simulator's steady-state period
// memoization (internal/sim/steadystate.go).

// MaxIters returns the core's iteration bound (0 = run forever). The
// steady-state detector clamps its leap so no bounded core reaches the
// bound mid-extrapolation: the done transition is a state change, not a
// counter, and must execute live.
func (c *Core) MaxIters() uint64 { return c.maxIters }

// DigestState mixes the core's complete behavioral state into h: the
// words AppendState emits.
func (c *Core) DigestState(h *statehash.Hash, now uint64) {
	var buf [32]uint64
	h.AddWords(c.AppendState(buf[:0], now))
}

// AppendState appends the core's complete behavioral state to buf as a
// canonical word stream, with absolute cycles expressed relative to now
// (the system cycle the stream is taken at), so that recurring states
// produce equal streams no matter where on the time axis they occur.
// Observables — the activity counters and the store buffer's
// Pushes/FullStalls/Drains — are excluded; they are handled by
// snapshot/delta (AddCounters). Iters in particular is monotone and never
// recurs. The caches have their own streams (Cache.AppendState), and a
// request the core has live at the bus is in the bus's stream.
func (c *Core) AppendState(buf []uint64, now uint64) []uint64 {
	buf = append(buf,
		uint64(c.st),
		statehash.Bool(c.inSetup),
		uint64(c.pc),
		statehash.Bool(c.done),
		c.fetchLine,
		statehash.Bool(c.haveFetch),
		c.commitAddr,
		c.pendingAddr)
	if c.st != sDone {
		buf = append(buf, c.nextFree-now)
	} else {
		// nextFree is stale once the core finished: nothing reads it, and
		// its distance to the advancing clock would otherwise grow forever
		// and block every future match.
		buf = append(buf, 0)
	}
	if c.now < c.batchEnd {
		// The read point and the batch's start pc and cycle fix how the
		// batch splits (batchTail): its instructions and the L1 hits they
		// took are [batchPC, pc) of the program, and batchEnd is nextFree,
		// emitted above. (The hits SyncNow holds out of the caches'
		// statistics are zero while a run executes, where the detector
		// reads this stream.) The leading 1 keeps the stream
		// self-delimiting: a read point of 0 must not read as the stale
		// case's single 0.
		buf = append(buf, 1, now-c.now, now-c.batchStart, uint64(c.batchPC))
	} else {
		// The batch markers and the read point are stale: Counters reads
		// them only while c.now < batchEnd, c.now only moves forward
		// (Tick, SyncNow), and the next batch rewrites all of them
		// together. Same growing-distance hazard as nextFree: a done or
		// waiting core is not ticked, so its c.now falls ever further
		// behind the clock.
		buf = append(buf, 0)
	}
	buf = append(buf, uint64(c.stallKind))
	if c.stallKind != stallNone {
		buf = append(buf, now-c.stallFrom)
	}
	sb := c.sb
	buf = append(buf, uint64(sb.n), statehash.Bool(sb.inflight))
	for i := 0; i < sb.n; i++ {
		j := sb.head + i
		if j >= sb.capacity {
			j -= sb.capacity
		}
		buf = append(buf, sb.buf[j])
	}
	return buf
}

// PC returns the index of the next instruction the core issues.
func (c *Core) PC() int { return c.pc }

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
