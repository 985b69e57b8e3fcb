// Command perfbench is rrbus's benchmark of record. Each invocation runs
// one seeded workload in its own process, does a fixed amount of work,
// checks that every output is correct, and prints its metrics as JSON.
//
//	perfbench -workload paper-sweep -seed 1 -seconds 12 -trace 0
//
// The workloads are paper-sweep, mix-aperiodic, store-warm and
// serve-mixed. -seconds sets the amount of work (passes or requests,
// calibrated so a run takes about that long); it is not a timer, so two
// commits measured with the same -seconds do the same work. The seed
// draws every input, and the same seed gives the same inputs.
//
// -trace 0 reports the end-to-end metrics; -trace 1 reports the per-layer
// metrics from a traced run of the same workload and seed, and also runs
// the untraced measurement in a child process to state the tracing
// overhead. The last line of standard output is the result:
//
//	{"correct": true, "attempted": 144, "failed": 0, "metrics": {...}}
//
// The line before it holds the details: rows_sha256 (a digest of every
// result row, or for serve-mixed of every document served), each check's
// outcome, the per-operation latency samples and the percentile used for
// the tail. A failed check exits 1. BENCHMARK.json at the repository root
// lists the workloads, the metrics and their regression bounds; README.md
// here explains how to run and compare.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: everything a run measured and checked.
type detail struct {
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Seconds        int               `json:"seconds"`
	WorkUnits      int               `json:"work_units"`
	Trace          bool              `json:"trace"`
	RowsSHA256     string            `json:"rows_sha256"`
	Checks         checks            `json:"checks"`
	Jobs           int64             `json:"jobs"`
	Simulated      int64             `json:"simulated"`
	SetupS         []float64         `json:"setup_s"`
	TailPercentile float64           `json:"tail_percentile"`
	LatencySamples int               `json:"latency_samples"`
	SamplesMS      []float64         `json:"samples_ms"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	// SpeedFactor is how much slower than the calibration VM the run
	// went; RawWallS is wall_s before dividing by it.
	SpeedFactor float64    `json:"speed_factor"`
	RawWallS    float64    `json:"raw_wall_s"`
	Speed       speedMeter `json:"speed"`
	Spans       string     `json:"spans,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every input of the workload is drawn from")
	seconds := fs.Int("seconds", 12, "amount of work, as the seconds it takes on the calibration machine")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	workdir := fs.String("workdir", ".bench_build/work", "directory for temporary stores and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	return measure(w, *seed, *seconds, *trace == 1, *workdir, stdout, stderr)
}

// measure runs one workload and prints its detail and result lines. It
// returns the process exit code: 1 if a check failed or the run could not
// complete, 0 otherwise.
func measure(w *workload, seed uint64, seconds int, traced bool, workdir string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var untracedWall float64
	if traced {
		if untracedWall, err = untracedRun(w.name, seed, seconds, workdir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: untraced run:", err)
			return 1
		}
	}
	n := w.size(seconds)
	b, err := execute(w, seed, n, dir, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	p, _, samples := tail(b.samples)
	d := detail{
		Workload: w.name, Seed: seed, Seconds: seconds, WorkUnits: n, Trace: traced,
		RowsSHA256: b.rowsSHA, Checks: b.checks, Jobs: b.jobs, Simulated: b.simulated,
		SetupS: b.setup, TailPercentile: p, LatencySamples: samples, SamplesMS: b.samples,
		EndToEnd:    report(endToEnd, endToEndValues(b), b.meter.factor()),
		SpeedFactor: b.meter.factor(), RawWallS: b.wall.Seconds(), Speed: b.meter,
	}
	res := result{Correct: b.checks.ok(), Attempted: b.attempted, Failed: b.failed, Metrics: d.EndToEnd}
	if traced {
		microValues, err := micro(seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: microbenchmarks:", err)
			return 1
		}
		spans := b.tr.snapshot(b.traceFrom)
		d.Spans = filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := writeSpans(d.Spans, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res.Metrics = report(perLayer, layerValues(b, summarize(spans), microValues, untracedWall), b.meter.factor())
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, f := range b.checks.failures() {
			fmt.Fprintln(stderr, "perfbench: check failed:", f)
		}
		return 1
	}
	return 0
}

// untracedRun measures the same workload and seed untraced, in a child
// process, and returns its wall_s: the base of trace.overhead_ratio.
func untracedRun(name string, seed uint64, seconds int, workdir string, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-workdir", workdir)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return 0, fmt.Errorf("read its result: %w", err)
	}
	return res.Metrics["wall_s"].Value, nil
}
