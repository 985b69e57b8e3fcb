package mem

import "rrbus/internal/statehash"

// This file is the memory-controller side of the simulator's steady-state
// period memoization (internal/sim/steadystate.go).

// appendTxn appends one live transaction's words to buf with its cycle
// stamps expressed relative to now. Unset stamps (Start/DataAt of a
// still-queued transaction) are skipped by the callers' per-list variants
// below.
func appendTxn(buf []uint64, t *Txn, now uint64) []uint64 {
	return append(buf, t.Addr, statehash.Bool(t.Write), uint64(int64(t.OrigPort)), t.Tag, now-t.Arrive)
}

// DigestState mixes the controller's complete behavioral state into h: the
// words AppendState emits.
func (c *Controller) DigestState(h *statehash.Hash, now uint64) {
	var buf [64]uint64
	h.AddWords(c.AppendState(buf[:0], now))
}

// AppendState appends the controller's complete behavioral state to buf as
// a canonical word stream, with every absolute cycle expressed relative to
// now. Bank and channel free-times are normalized to max(freeAt-now, 0):
// once in the past they are behaviorally dead (every comparison is
// freeAt > cycle with cycle >= now), but their raw distance to the
// advancing clock would grow without bound and block every future match on
// workloads that stop touching memory. Statistics are observables, handled
// by AddStats; the Txn freelist is a pure allocation cache.
func (c *Controller) AppendState(buf []uint64, now uint64) []uint64 {
	for i := range c.banks {
		b := &c.banks[i]
		buf = append(buf, uint64(b.openRow), ahead(b.freeAt, now))
	}
	q := c.pending()
	buf = append(buf, ahead(c.chanFree, now), uint64(len(q)))
	for _, t := range q {
		buf = appendTxn(buf, t, now)
	}
	buf = append(buf, uint64(len(c.inflight)))
	for _, t := range c.inflight {
		buf = append(appendTxn(buf, t, now), t.DataAt-now)
	}
	buf = append(buf, uint64(len(c.ready)))
	for _, t := range c.ready {
		buf = append(appendTxn(buf, t, now), now-t.DataAt)
	}
	return buf
}

// ahead is how far at lies after now, or 0 once it does not.
func ahead(at, now uint64) uint64 {
	if at > now {
		return at - now
	}
	return 0
}

// ShiftTime moves every absolute-cycle quantity the controller holds
// forward by d, as part of a steady-state leap of d cycles. Stale fields
// (a bank freeAt in the past, the unset Start/DataAt of a queued
// transaction) shift too: the uniform shift preserves their relation to
// the equally shifted clock, staleness included.
func (c *Controller) ShiftTime(d uint64) {
	for i := range c.banks {
		c.banks[i].freeAt += d
	}
	c.chanFree += d
	for _, t := range c.pending() {
		t.Arrive += d
		t.Start += d
		t.DataAt += d
	}
	for _, t := range c.inflight {
		t.Arrive += d
		t.Start += d
		t.DataAt += d
	}
	for _, t := range c.ready {
		t.Arrive += d
		t.Start += d
		t.DataAt += d
	}
}

// AddStats adds k times the per-period delta d into the accumulated
// statistics. The detector only applies a delta whose max-type field
// (MaxQueue) is zero — a state-identical period replays the same queue
// depths, so the high-water mark can only move in the first occurrence.
func (c *Controller) AddStats(d Stats, k uint64) {
	c.stats.Reads += d.Reads * k
	c.stats.Writes += d.Writes * k
	c.stats.RowHits += d.RowHits * k
	c.stats.RowEmpty += d.RowEmpty * k
	c.stats.RowConflicts += d.RowConflicts * k
	c.stats.ChannelBusy += d.ChannelBusy * k
	c.stats.MaxQueue += int(k) * d.MaxQueue
	c.stats.Rejected += d.Rejected * k
}
