package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rrbus"
)

// workload is one seeded input set of the benchmark. Its amount of work
// is fixed by -seconds through size, not by a timer, so two commits
// measured with the same -seconds do identical work and a faster commit
// simply finishes sooner.
type workload struct {
	name string
	why  string
	// size turns -seconds into the workload's work: passes for the
	// sweeps, requests per client for the server. The rates behind it
	// were calibrated on a 2-vCPU x86-64 VM, in seconds at its quiet
	// speed (see speedMeter).
	size func(seconds int) int
	// setup builds the state one run measures. It is timed, repeated
	// setupReps times, and only the last state is measured.
	setup func(b *bench, n int) (runner, error)
}

// runner is a set-up workload, ready to measure.
type runner interface {
	measure(b *bench) error
	// digest is the rows_sha256 of everything the run produced.
	digest() string
	close()
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []*workload{paperSweep, mixAperiodic, storeWarm, serveMixed}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// setupReps is how many times a run sets up. Reporting the median makes
// setup_s steady enough to gate work moved out of the timed region.
const setupReps = 3

// bench is one run: its seed, where it may write, the tracer (nil for the
// untraced run) and everything the timed region measured.
type bench struct {
	seed    uint64
	workdir string
	tr      *tracer

	setup     []float64 // seconds per setup repetition
	samples   []float64 // per-operation latency, ms
	attempted int
	failed    int
	jobs      int64 // jobs the timed operations covered, simulated or store-served
	simulated int64
	wall      time.Duration
	alloc     uint64 // heap bytes allocated by the timed operations
	exec      execStats
	meter     speedMeter
	rowsSHA   string
	checks    checks

	// Reported by the traced run only.
	traceFrom int64 // tracer clock at the start of the measured region
	replay    replayTally
	storeHits int64
	bytes     [3]int64 // encoded document bytes per backend
	serve     rrbus.DrainSummary
	polls     int
}

// execute sets a workload up setupReps times and measures the last setup.
func execute(w *workload, seed uint64, n int, workdir string, traced bool) (*bench, error) {
	b := &bench{seed: seed, workdir: workdir, checks: checks{}}
	if traced {
		b.tr = newTracer()
	}
	var r runner
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = w.setup(b, n)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		// Collect the setup's garbage, as testing.B does before timing,
		// so the measured region and the peak RSS do not depend on where
		// the collector happened to be. Then a few reference bursts give
		// the speed factor samples from the setup phase too.
		runtime.GC()
		for j := 0; j < 3; j++ {
			b.meter.burst()
		}
	}
	defer r.close()
	if err := r.measure(b); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	b.rowsSHA = r.digest()
	return b, nil
}

// op records the outcome of one attempted operation: a plan in a sweep,
// a request to the server. A failed operation is also a failed check.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
	}
	b.checks.record("operations_succeed", err)
}

// checkResult is the outcome of one correctness check over the run.
type checkResult struct {
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	First  string `json:"first_error,omitempty"`
}

// checks maps a check's name to its outcome.
type checks map[string]*checkResult

func (c checks) record(name string, err error) {
	r := c[name]
	if r == nil {
		r = &checkResult{}
		c[name] = r
	}
	if err == nil {
		r.Passed++
		return
	}
	r.Failed++
	if r.First == "" {
		r.First = err.Error()
	}
}

// ok reports whether every check passed every time it ran.
func (c checks) ok() bool {
	for _, r := range c {
		if r.Failed > 0 {
			return false
		}
	}
	return true
}

// failures lists the failed checks with their first error, sorted.
func (c checks) failures() []string {
	var out []string
	for name, r := range c {
		if r.Failed > 0 {
			out = append(out, fmt.Sprintf("%s: %d failed, first: %s", name, r.Failed, r.First))
		}
	}
	sort.Strings(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
