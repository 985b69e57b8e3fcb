package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rrbus"
	"rrbus/internal/bus"
	"rrbus/internal/cache"
	"rrbus/internal/dist"
	"rrbus/internal/isa"
	"rrbus/internal/mem"
	"rrbus/internal/statehash"
)

// The traced run's microbenchmarks time single layers through their
// public functions, outside any workload, on the reference platform
// (ref). Each reports the median over microBatches batches of the time per
// call, so one slow batch does not move it.
const microBatches = 7

// sink keeps the compiler from discarding a measured call's result.
var sink uint64

// perCall times fn, which makes n calls, microBatches times and returns
// the median time per call in nanoseconds.
func perCall(n int, fn func()) float64 {
	fn() // warm caches and branch predictors, untimed
	per := make([]float64, microBatches)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// micro runs every microbenchmark and returns its metrics by name.
func micro(seed uint64) (map[string]float64, error) {
	cfg := rrbus.ReferenceNGMP()
	out := map[string]float64{}

	// The address stream of the paper's kernels on core 0: rsk and
	// rsk-nop bodies, loads and stores, in program order.
	kb := rrbus.NewKernelBuilder(cfg)
	var addrs []uint64
	for _, mk := range []func() (*rrbus.Program, error){
		func() (*rrbus.Program, error) { return kb.RSK(0, isa.OpLoad) },
		func() (*rrbus.Program, error) { return kb.RSK(0, isa.OpStore) },
		func() (*rrbus.Program, error) { return kb.RSKNop(0, isa.OpLoad, 5) },
	} {
		p, err := mk()
		if err != nil {
			return nil, err
		}
		for _, in := range p.Body {
			if in.Op == isa.OpLoad || in.Op == isa.OpStore {
				addrs = append(addrs, in.Addr)
			}
		}
	}
	const cacheOps = 200_000
	l2 := cache.MustNew(cfg.L2)
	for _, a := range addrs {
		l2.Fill(a, 0)
	}
	out["cache.access_ns"] = perCall(cacheOps, func() {
		for i := 0; i < cacheOps; i++ {
			if l2.Access(addrs[i%len(addrs)], false, 0).Hit {
				sink++
			}
		}
	})
	// rsk maps more lines to one DL1 set than it has ways, so every fill
	// into the DL1 evicts: the miss path's full cost.
	dl1 := cache.MustNew(cfg.DL1)
	out["cache.fill_ns"] = perCall(cacheOps, func() {
		for i := 0; i < cacheOps; i++ {
			if dl1.Fill(addrs[i%len(addrs)], 0).Evicted {
				sink++
			}
		}
	})

	// One bus grant per arbiter: arbitrate among four always-pending
	// ports, hold the bus for lbus cycles, complete and resubmit.
	lbus := cfg.BusLatency()
	arbiters := map[string]func() bus.Arbiter{
		"rr":      func() bus.Arbiter { return bus.NewRoundRobin(4) },
		"wrr":     func() bus.Arbiter { return bus.NewWeightedRoundRobin([]int{1, 2, 3, 1}) },
		"fp":      func() bus.Arbiter { return bus.NewFixedPriority(4) },
		"lottery": func() bus.Arbiter { return bus.NewLottery(4, seed+1) },
	}
	for name, mk := range arbiters {
		b, err := bus.New(4, mk(), func(*bus.Request) int { return lbus })
		if err != nil {
			return nil, err
		}
		reqs := make([]bus.Request, 4)
		for p := range reqs {
			reqs[p].Port = p
			b.Submit(&reqs[p], 0)
		}
		var cycle uint64
		const grants = 200_000
		var grantErr error
		out["bus.grant_ns."+name] = perCall(grants, func() {
			for i := 0; i < grants; i++ {
				r := b.Arbitrate(cycle)
				if r == nil {
					grantErr = fmt.Errorf("bus %s: no grant with every port pending", name)
					return
				}
				cycle += uint64(r.Occupancy)
				b.Complete(cycle)
				b.Submit(r, cycle)
			}
		})
		if grantErr != nil {
			return nil, grantErr
		}
	}

	// One DRAM read: push, tick to its completion, pop and recycle, over
	// addresses spread across banks and rows.
	mc := mem.MustNew(cfg.Mem)
	rng := rand.New(rand.NewSource(int64(seed)))
	memAddrs := make([]uint64, 4096)
	for i := range memAddrs {
		memAddrs[i] = uint64(rng.Intn(1<<26)) &^ 63
	}
	var now uint64
	const txns = 50_000
	var memErr error
	out["mem.txn_ns"] = perCall(txns, func() {
		for i := 0; i < txns; i++ {
			t := mc.AcquireTxn()
			t.Addr, t.Write = memAddrs[i%len(memAddrs)], false
			if !mc.Push(t, now) {
				memErr = fmt.Errorf("mem: an empty queue refused a transaction")
				return
			}
			for !mc.HasReady() {
				mc.Tick(now)
				if !mc.HasReady() {
					now = mc.NextEvent(now + 1)
				}
			}
			mc.Recycle(mc.PopReady())
		}
	})
	if memErr != nil {
		return nil, memErr
	}

	const adds = 2_000_000
	out["statehash.add_ns"] = perCall(adds, func() {
		h := statehash.New()
		for i := 0; i < adds; i++ {
			h.Add(uint64(i))
		}
		sink += h.Sum().A
	})
	sysDigest, err := systemDigest(cfg, kb)
	if err != nil {
		return nil, err
	}
	out["statehash.system_digest_us"] = sysDigest / 1e3

	wire, decode, ingest, err := distMicro()
	if err != nil {
		return nil, err
	}
	out["dist.wire_row_us"] = wire / 1e3
	out["dist.decode_row_us"] = decode / 1e3
	out["dist.ingest_rows_per_s"] = ingest
	return out, nil
}

// systemDigest times one full architectural-state digest — every core,
// its L1s, the L2, the bus and the memory controller, as the steady-state
// detector takes it — of a reference System running 4×rsk, warmed for
// 200k cycles.
func systemDigest(cfg rrbus.Config, kb rrbus.KernelBuilder) (float64, error) {
	progs := make([]*rrbus.Program, cfg.Cores)
	for c := range progs {
		p, err := kb.RSK(c, isa.OpLoad)
		if err != nil {
			return 0, err
		}
		progs[c] = p
	}
	sys, err := rrbus.NewSystem(cfg, progs, make([]uint64, len(progs)))
	if err != nil {
		return 0, err
	}
	defer sys.Release()
	sys.RunUntil(func() bool { return false }, 200_000)
	const digests = 2_000
	return perCall(digests, func() {
		for i := 0; i < digests; i++ {
			h := statehash.New()
			now := sys.Cycle()
			for c := 0; c < sys.NumCores(); c++ {
				core := sys.Core(c)
				core.DigestState(&h, now)
				core.DL1().DigestState(&h)
				core.IL1().DigestState(&h)
			}
			sys.L2().DigestState(&h)
			sys.Bus().DigestState(&h, now)
			sys.Mem().DigestState(&h, now)
			sink += h.Sum().A
		}
	}), nil
}

// distMicro times the distribution layer on one Fig. 7 sweep's rows:
// packaging a row for the wire, verifying and decoding it, and the
// coordinator's lease→deliver→ingest cycle in rows per second.
func distMicro() (wireNS, decodeNS, ingestRowsPerS float64, err error) {
	plan, err := rrbus.GeneratorPlan("fig7", rrbus.Params{"arch": "ref", "type": "load", "kmax": 40, "iters": 10})
	if err != nil {
		return 0, 0, 0, err
	}
	results, err := (&rrbus.Session{Workers: 1}).RunAll(plan)
	if err != nil {
		return 0, 0, 0, err
	}
	hashes := plan.JobHashes()
	specs := make([]dist.JobSpec, len(hashes))
	rows := make(map[string]dist.ResultRow, len(hashes))
	for i, h := range hashes {
		specs[i] = dist.JobSpec{Hash: h, Job: plan.Jobs[i]}
		if rows[h], err = dist.WireRow(h, results[i]); err != nil {
			return 0, 0, 0, err
		}
	}
	n := len(hashes)
	const rounds = 50
	var callErr error
	wireNS = perCall(rounds*n, func() {
		for r := 0; r < rounds; r++ {
			for i, h := range hashes {
				if _, err := dist.WireRow(h, results[i]); err != nil {
					callErr = err
				}
			}
		}
	})
	decodeNS = perCall(rounds*n, func() {
		for r := 0; r < rounds; r++ {
			for _, h := range hashes {
				if _, err := dist.DecodeRow(rows[h]); err != nil {
					callErr = err
				}
			}
		}
	})
	if callErr != nil {
		return 0, 0, 0, callErr
	}
	var ingestErr error
	perRow := perCall(10*n, func() {
		for r := 0; r < 10; r++ {
			q := dist.NewQueue(rrbus.NewMemStore(), dist.QueueOptions{})
			q.Enqueue("bench", specs)
			for {
				l := q.Lease("bench-worker", 0)
				if l.ID == "" {
					break
				}
				batch := make([]dist.ResultRow, len(l.Jobs))
				for i, sp := range l.Jobs {
					batch[i] = rows[sp.Hash]
				}
				if resp := q.Ingest(dist.IngestRequest{Worker: "bench-worker", Lease: l.ID, Rows: batch}); resp.Rejected > 0 {
					ingestErr = fmt.Errorf("dist ingest: %d rows rejected: %v", resp.Rejected, resp.Errors)
					return
				}
			}
			if err := q.Wait(context.Background(), "bench"); err != nil {
				ingestErr = err
				return
			}
		}
	})
	if ingestErr != nil {
		return 0, 0, 0, ingestErr
	}
	return wireNS, decodeNS, 1e9 / perRow, nil
}
