package bus

import "rrbus/internal/statehash"

// This file is the bus side of the simulator's steady-state period
// memoization (internal/sim/steadystate.go): a cycle-relative digest of the
// complete bus state, a uniform time shift applied when whole periods are
// extrapolated in closed form, and counter-delta application for the
// accumulated statistics and the native watch histograms.

// StateDigester is an optional Arbiter refinement for policies whose grant
// decisions depend on internal state (a round-robin rotor, a weighted-round-
// robin slot position, a lottery RNG) or on the absolute cycle (TDMA's slot
// phase). StateWord must return every such quantity as one word,
// expressing absolute cycles relative to now (for TDMA: the phase within
// the frame), so that equal words at two cycles imply the arbiter behaves
// identically from those cycles on, modulo a uniform time shift; ok is
// false for a stateless policy. The steady-state detector refuses to engage
// on arbiters that do not implement it.
type StateDigester interface {
	StateWord(now uint64) (w uint64, ok bool)
}

// StateWord implements StateDigester: the rotor is the whole state.
func (r *RoundRobin) StateWord(uint64) (uint64, bool) { return uint64(r.head), true }

// StateWord implements StateDigester: fixed priority is stateless and
// cycle-independent, so there is no word.
func (f *FixedPriority) StateWord(uint64) (uint64, bool) { return 0, false }

// StateWord implements StateDigester. TDMA's Pick depends on the absolute
// cycle only through cycle mod frame, so the frame phase as state makes two
// matching streams imply the candidate period is a whole number of frames —
// exactly the condition under which a time shift preserves every future
// grant decision.
func (t *TDMA) StateWord(now uint64) (uint64, bool) { return now % t.Frame(), true }

// StateWord implements StateDigester: the xorshift state advances only on
// granting Picks, so it is plain (cycle-independent) arbiter state.
func (l *Lottery) StateWord(uint64) (uint64, bool) { return l.state, true }

// StateWord implements StateDigester: the virtual-slot cursor is the whole
// state.
func (w *WeightedRoundRobin) StateWord(uint64) (uint64, bool) { return uint64(w.pos), true }

// CanDigest reports whether the installed arbiter supports state digesting;
// the steady-state detector disables itself otherwise.
func (b *Bus) CanDigest() bool {
	_, ok := b.arb.(StateDigester)
	return ok
}

// DigestState mixes the complete behavioral bus state into h: the words
// AppendState emits.
func (b *Bus) DigestState(h *statehash.Hash, now uint64) {
	var buf [128]uint64
	h.AddWords(b.AppendState(buf[:0], now))
}

// AppendState appends the complete behavioral bus state to buf as a
// canonical word stream, with every absolute cycle expressed relative to
// now (the next cycle the owning system will execute). Equal streams at two
// cycles — together with equal streams of every other component — imply
// the bus evolves identically from both, shifted in time; that is the
// invariant the steady-state leap rests on. Statistics and watch histograms
// are deliberately excluded: they are observables, handled by
// snapshot/delta (AddStats/AddWatchHists), not state.
func (b *Bus) AppendState(buf []uint64, now uint64) []uint64 {
	buf = append(buf, uint64(b.npend))
	for p := 0; p < b.nports; p++ {
		if !b.pending[p] {
			continue
		}
		r := b.heads[p]
		buf = append(buf, uint64(p), uint64(r.Kind), r.Addr, uint64(int64(r.OrigPort)), r.Tag, now-r.Ready)
	}
	if r := b.current; r != nil {
		buf = append(buf, 1, uint64(r.Port), uint64(r.Kind), r.Addr, uint64(int64(r.OrigPort)), r.Tag,
			uint64(r.Occupancy), b.freeAt-now, now-r.Ready, now-r.Grant)
	} else {
		// freeAt is stale while no transaction is in service; nothing
		// reads it until the next grant rewrites it, so it is not state.
		buf = append(buf, 0)
	}
	buf = append(buf, uint64(b.ndef))
	for p := 0; p < b.nports; p++ {
		rdy := b.defReady[p]
		if rdy == noDeferred {
			continue
		}
		r := b.defReq[p]
		buf = append(buf, uint64(p), rdy-now, uint64(r.Kind), r.Addr)
	}
	if d, ok := b.arb.(StateDigester); ok {
		if w, ok := d.StateWord(now); ok {
			buf = append(buf, w)
		}
	}
	return buf
}

// ShiftTime moves every absolute-cycle quantity the bus holds forward by d,
// as part of a steady-state leap of d cycles: the in-service completion
// time, deferred ready cycles (and their cached minimum), and the Ready and
// Grant stamps of live requests. Stale fields (freeAt with nothing in
// service) shift too — the shift preserves their staleness relative to the
// equally shifted clock.
func (b *Bus) ShiftTime(d uint64) {
	b.freeAt += d
	for p := range b.defReady {
		if b.defReady[p] != noDeferred {
			b.defReady[p] += d
		}
	}
	if b.defMin != noDeferred {
		b.defMin += d
	}
	for p, pend := range b.pending {
		if pend {
			b.heads[p].Ready += d
		}
	}
	if b.current != nil {
		b.current.Ready += d
		b.current.Grant += d
	}
}

// AddStats adds k times the per-period delta d into the accumulated
// statistics. The steady-state detector only calls it with a delta whose
// max-type field (MaxGamma) is zero: a state-identical period replays the
// same γ values, so the max can only move in the first occurrence.
func (b *Bus) AddStats(d Stats, k uint64) {
	for p := range b.pstats {
		ps := &b.pstats[p]
		ps.grants += d.Grants[p] * k
		ps.busy += d.BusyCycles[p] * k
		ps.waitSum += d.WaitSum[p] * k
		ps.maxGamma += d.MaxGamma[p] * k
	}
	b.totalBusy += d.TotalBusy * k
}

// AddWatchHists adds k times the per-period histogram deltas into the
// native watch histograms. The caller must have verified the live
// histograms still have the deltas' lengths (they grow on demand; a growth
// between snapshots aborts the leap instead).
func (b *Bus) AddWatchHists(gamma, cont []uint64, k uint64) {
	for i, v := range gamma {
		b.gammaHist[i] += v * k
	}
	for i, v := range cont {
		b.contHist[i] += v * k
	}
}
