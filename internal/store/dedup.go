package store

import (
	"sync"

	"rrbus/internal/scenario"
)

// Dedup coordinates concurrent sessions sharing one store so that a job
// hash missing from the store is simulated at most once across all of
// them — the server-side guarantee that two clients submitting
// overlapping plans never burn simulation time on the same measurement
// twice. The store itself already makes duplicate work harmless (any
// honest writer records the same bytes); Dedup makes it *absent*.
//
// Each session run wraps the shared store in its own view (Wrap). The
// first view to observe a miss for a hash claims it and simulates; any
// other view that misses the same hash blocks until the owner records
// the row (its Get then becomes a store hit) or abandons the claim (the
// waiter re-claims and simulates itself). Claims are released by Put and
// by Close, so a cancelled or failed run never strands its waiters.
//
// The guarantee covers plain misses. A corrupt entry is passed through
// unclaimed — quarantine-and-resimulate healing keeps its existing
// semantics, at worst duplicating a heal under a pathological race.
type Dedup struct {
	mu       sync.Mutex
	inflight map[string]*dedupFlight
}

type dedupFlight struct {
	owner *DedupStore
	done  chan struct{}
}

// NewDedup returns an empty claim table. One Dedup guards one underlying
// store; views of different Dedups share nothing.
func NewDedup() *Dedup {
	return &Dedup{inflight: map[string]*dedupFlight{}}
}

// Wrap returns this run's view of st. The view is itself a Store (plus
// PlanRecorder/Quarantiner forwarding) to hand to a Session; call Close
// when the run is over so any claims a failed run still holds are
// released.
func (d *Dedup) Wrap(st Store) *DedupStore {
	return &DedupStore{d: d, under: st, owned: map[string]struct{}{}}
}

// DedupStore is one session run's view of a Dedup-guarded store. It is
// safe for concurrent use by the session's workers.
type DedupStore struct {
	d     *Dedup
	under Store

	mu    sync.Mutex
	owned map[string]struct{}
}

// Get implements Store. A miss either claims the hash for this view
// (returned as a miss: this session simulates it) or, when another view
// already owns it, blocks until that claim resolves and retries — the
// retry normally finds the row the owner recorded and reports a hit.
func (v *DedupStore) Get(jobHash string) (scenario.Result, bool, error) {
	for {
		r, ok, err := v.under.Get(jobHash)
		if ok || err != nil {
			return r, ok, err
		}
		v.d.mu.Lock()
		f := v.d.inflight[jobHash]
		if f == nil {
			v.d.inflight[jobHash] = &dedupFlight{owner: v, done: make(chan struct{})}
			v.d.mu.Unlock()
			v.mu.Lock()
			v.owned[jobHash] = struct{}{}
			v.mu.Unlock()
			// Between the miss above and the claim, another owner may
			// have recorded the row and released its claim. Read again
			// now that the claim holds off any later owner; a hit or an
			// error gives the claim back.
			r, ok, err := v.under.Get(jobHash)
			if ok || err != nil {
				v.release(jobHash)
			}
			return r, ok, err
		}
		if f.owner == v {
			// Our own claim — a plan listing the same job twice. Both
			// copies simulate in this session; blocking here would
			// deadlock a worker on itself.
			v.d.mu.Unlock()
			return r, false, nil
		}
		ch := f.done
		v.d.mu.Unlock()
		<-ch
	}
}

// Put implements Store, recording the row and releasing this view's
// claim on the hash — the moment waiting views wake and re-read.
func (v *DedupStore) Put(jobHash string, r scenario.Result) error {
	if err := v.under.Put(jobHash, r); err != nil {
		return err
	}
	v.release(jobHash)
	return nil
}

// PutPlan forwards plan recording when the wrapped store supports it.
func (v *DedupStore) PutPlan(c *scenario.Compiled) error {
	if pr, ok := v.under.(PlanRecorder); ok {
		return pr.PutPlan(c)
	}
	return nil
}

// Quarantine forwards to the wrapped store when it supports quarantine.
func (v *DedupStore) Quarantine(jobHash, reason string) error {
	if q, ok := v.under.(Quarantiner); ok {
		return q.Quarantine(jobHash, reason)
	}
	return nil
}

// Close releases every claim this view still holds. A clean run has
// released them all through Put; after a failed or drained run this is
// what wakes the views waiting on rows that never got recorded.
func (v *DedupStore) Close() {
	v.mu.Lock()
	hashes := make([]string, 0, len(v.owned))
	for h := range v.owned {
		hashes = append(hashes, h)
	}
	v.mu.Unlock()
	for _, h := range hashes {
		v.release(h)
	}
}

func (v *DedupStore) release(jobHash string) {
	v.mu.Lock()
	_, mine := v.owned[jobHash]
	delete(v.owned, jobHash)
	v.mu.Unlock()
	if !mine {
		return
	}
	v.d.mu.Lock()
	if f := v.d.inflight[jobHash]; f != nil && f.owner == v {
		delete(v.d.inflight, jobHash)
		close(f.done)
	}
	v.d.mu.Unlock()
}
