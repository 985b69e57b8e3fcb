package store_test

import (
	"reflect"
	"sync"
	"testing"

	"rrbus/internal/scenario"
	"rrbus/internal/sim"
	"rrbus/internal/store"
)

var engines = []struct {
	name string
	e    sim.Engine
}{{"steady", sim.Steady}, {"event", sim.Event}, {"oracle", sim.Oracle}}

// TestSessionEngineReachesSimulator runs one plan through a Session per
// engine. The rows must be identical, and the execution stats must show
// that each session's engine is the one that ran: the oracle ticks every
// cycle, the event engine skips dead cycles but leaps nothing, and the
// steady-state engine leaps.
//
// Sequential: a parallel test would add to its sim.ReadExecStats deltas.
func TestSessionEngineReachesSimulator(t *testing.T) {
	c := compileFig7(t, 8)
	rows := make([][]scenario.Result, len(engines))
	stats := make([]sim.ExecStats, len(engines))
	for i, eng := range engines {
		before := sim.ReadExecStats()
		var err error
		rows[i], err = (&store.Session{Engine: eng.e}).RunAll(c)
		if err != nil {
			t.Fatal(err)
		}
		after := sim.ReadExecStats()
		stats[i] = sim.ExecStats{
			Steps:        after.Steps - before.Steps,
			Cycles:       after.Cycles - before.Cycles,
			Extrapolated: after.Extrapolated - before.Extrapolated,
			PeriodsLeapt: after.PeriodsLeapt - before.PeriodsLeapt,
		}
		t.Logf("%s: %+v", eng.name, stats[i])
	}
	for i := 1; i < len(engines); i++ {
		if !reflect.DeepEqual(rows[0], rows[i]) {
			t.Errorf("%s rows differ from %s rows:\n%+v\n%+v", engines[i].name, engines[0].name, rows[i], rows[0])
		}
		if stats[i].Cycles != stats[0].Cycles {
			t.Errorf("%s simulated %d cycles, %s %d", engines[i].name, stats[i].Cycles, engines[0].name, stats[0].Cycles)
		}
	}
	steady, event, oracle := stats[0], stats[1], stats[2]
	if oracle.Steps != oracle.Cycles || oracle.Extrapolated != 0 {
		t.Errorf("oracle session did not tick every cycle: %+v", oracle)
	}
	if event.Extrapolated != 0 || event.Steps >= event.Cycles {
		t.Errorf("event session leapt or skipped no cycles: %+v", event)
	}
	if steady.Extrapolated == 0 {
		t.Errorf("steady-state session leapt nothing: %+v", steady)
	}
}

// TestSessionEnginesRunConcurrently runs the same plan through one Session
// per engine at the same time — an engine A/B inside one process — and
// requires identical rows.
func TestSessionEnginesRunConcurrently(t *testing.T) {
	t.Parallel()
	c := compileFig7(t, 8)
	rows := make([][]scenario.Result, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = (&store.Session{Engine: eng.e}).RunAll(c)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", engines[i].name, err)
		}
	}
	for i := 1; i < len(engines); i++ {
		if !reflect.DeepEqual(rows[0], rows[i]) {
			t.Errorf("%s rows differ from %s rows:\n%+v\n%+v", engines[i].name, engines[0].name, rows[i], rows[0])
		}
	}
}
