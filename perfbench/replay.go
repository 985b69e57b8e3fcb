package main

import (
	"fmt"

	"rrbus"
)

// replayTally accumulates the traced run's serial replay of the jobs a
// pass simulated. The session interleaves workload construction and
// simulation inside one call; replaying each job through Scenario.Build,
// rrbus.Run and rrbus.RunIsolation outside the timed region splits that
// time by layer, and the modelled hardware counts come from the replayed
// Measurements.
type replayTally struct {
	jobs       int
	simCycles  uint64 // contended plus isolation runs, warmup included
	l2Accesses uint64
	busGrants  uint64
	memTxns    uint64
}

// replay re-runs one simulated job and checks it reproduces the row the
// session recorded for it.
func (t *replayTally) replay(tr *tracer, req int64, job rrbus.Job, want rrbus.Result) error {
	id := tr.begin("workload.build", 0, req)
	cfg, w, err := job.Scenario.Build()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay %s: %w", job.ID, err)
	}
	p := job.Scenario.Protocol
	opts := rrbus.RunOpts{WarmupIters: p.Warmup, MeasureIters: p.Iters, CollectGammas: p.Gammas, TraceLimit: p.Trace}
	id = tr.begin("sim.run", 0, req)
	m, err := rrbus.Run(cfg, w, opts)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay %s: %w", job.ID, err)
	}
	t.count(m)
	if m.Cycles != want.Cycles {
		return fmt.Errorf("replay %s: %d cycles, session recorded %d", job.ID, m.Cycles, want.Cycles)
	}
	if job.Isolation {
		id = tr.begin("sim.isolation", 0, req)
		iso, err := rrbus.RunIsolation(cfg, w.Scua, opts)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay %s isolation: %w", job.ID, err)
		}
		t.count(iso)
		if iso.Cycles != want.IsolationCycles {
			return fmt.Errorf("replay %s: %d isolation cycles, session recorded %d", job.ID, iso.Cycles, want.IsolationCycles)
		}
	}
	t.jobs++
	return nil
}

func (t *replayTally) count(m *rrbus.Measurement) {
	t.simCycles += m.TotalCycles
	t.l2Accesses += m.L2.Accesses()
	for _, g := range m.Bus.Grants {
		t.busGrants += g
	}
	t.memTxns += m.Mem.Reads + m.Mem.Writes
}
