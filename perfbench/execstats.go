package main

import "rrbus/internal/sim"

// execStats is the simulator's execution tally: macro-steps executed,
// simulated cycles covered, the cycles the steady-state engine leapt and
// over how many periods. The engine keeps it process-wide, so this file is
// the one place the benchmark reads it, always as a difference across the
// timed region (never across the trace run's replay).
type execStats struct {
	steps, cycles, leapt, periods uint64
}

func readExec() execStats {
	s := sim.ReadExecStats()
	return execStats{steps: s.Steps, cycles: s.Cycles, leapt: s.Extrapolated, periods: s.PeriodsLeapt}
}

func (a execStats) sub(b execStats) execStats {
	return execStats{a.steps - b.steps, a.cycles - b.cycles, a.leapt - b.leapt, a.periods - b.periods}
}

func (a execStats) add(b execStats) execStats {
	return execStats{a.steps + b.steps, a.cycles + b.cycles, a.leapt + b.leapt, a.periods + b.periods}
}
