package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef describes one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of rrbus sees, reported by the untraced
// run of every workload. An operation is a pass of a sweep workload and a
// request of serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.2},
	{"jobs_per_s", "1/s", "higher", 0.2},
	{"op_p50_ms", "ms", "lower", 0.2},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics: self times from the spans, the
// replay's split of session time, exact engine and model counts, and the
// microbenchmarks. A layer a workload never calls reads 0.
var perLayer = []metricDef{
	{Name: "scenario.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.isolation_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_simcycle", Unit: "ns", Better: "lower"},
	{Name: "sim.steps", Unit: "count", Better: "lower"},
	{Name: "sim.cycles_per_step", Unit: "cycles/step", Better: "higher"},
	{Name: "sim.leapt_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.periods_leapt", Unit: "count", Better: "higher"},
	{Name: "sim.model.l2_accesses", Unit: "count", Better: "lower"},
	{Name: "sim.model.bus_grants", Unit: "count", Better: "lower"},
	{Name: "sim.model.mem_txns", Unit: "count", Better: "lower"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.fill_ns", Unit: "ns", Better: "lower"},
	{Name: "bus.grant_ns.rr", Unit: "ns", Better: "lower"},
	{Name: "bus.grant_ns.wrr", Unit: "ns", Better: "lower"},
	{Name: "bus.grant_ns.fp", Unit: "ns", Better: "lower"},
	{Name: "bus.grant_ns.lottery", Unit: "ns", Better: "lower"},
	{Name: "mem.txn_ns", Unit: "ns", Better: "lower"},
	{Name: "statehash.add_ns", Unit: "ns", Better: "lower"},
	{Name: "statehash.system_digest_us", Unit: "us", Better: "lower"},
	{Name: "store.self_s", Unit: "s", Better: "lower"},
	{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.gets", Unit: "count", Better: "lower"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.puts", Unit: "count", Better: "lower"},
	{Name: "store.put_plan_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.leftover_s", Unit: "s", Better: "lower"},
	{Name: "trace.harness_s", Unit: "s", Better: "lower"},
	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "report.document_ms", Unit: "ms", Better: "lower"},
	{Name: "report.encode_ms.text", Unit: "ms", Better: "lower"},
	{Name: "report.encode_ms.html", Unit: "ms", Better: "lower"},
	{Name: "report.encode_ms.json", Unit: "ms", Better: "lower"},
	{Name: "report.bytes.text", Unit: "bytes", Better: "lower"},
	{Name: "report.bytes.html", Unit: "bytes", Better: "lower"},
	{Name: "report.bytes.json", Unit: "bytes", Better: "lower"},
	{Name: "report.decode_ms.json", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.doc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.polls_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.simulated_jobs", Unit: "count", Better: "lower"},
	{Name: "serve.store_hits", Unit: "count", Better: "higher"},
	{Name: "dist.wire_row_us", Unit: "us", Better: "lower"},
	{Name: "dist.decode_row_us", Unit: "us", Better: "lower"},
	{Name: "dist.ingest_rows_per_s", Unit: "1/s", Better: "higher"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills raw values into the metric set defs, by name, dividing
// every time by the run's speed factor (see speedMeter) and multiplying
// every rate: the values read as if measured on the calibration VM.
func report(defs []metricDef, values map[string]float64, speed float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		switch d.Unit {
		case "s", "ms", "us", "ns":
			v /= speed
		case "1/s":
			v *= speed
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// endToEndValues computes the untraced run's metrics.
func endToEndValues(b *bench) map[string]float64 {
	wall := b.wall.Seconds()
	_, tailValue, _ := tail(b.samples)
	return map[string]float64{
		"setup_s":          median(b.setup),
		"wall_s":           wall,
		"jobs_per_s":       float64(b.jobs) / wall,
		"op_p50_ms":        median(b.samples),
		"op_tail_ms":       tailValue,
		"alloc_mb_per_job": float64(b.alloc) / 1e6 / float64(max(b.jobs, 1)),
		"peak_rss_mb":      peakRSSMB(),
	}
}

// layerValues computes the traced run's metrics from its spans, replay,
// engine tally and microbenchmarks. untracedWall is the (speed-corrected)
// wall_s of a separate untraced run of the same workload and seed.
func layerValues(b *bench, lt layerTimes, microValues map[string]float64, untracedWall float64) map[string]float64 {
	v := map[string]float64{}
	for k, x := range microValues {
		v[k] = x
	}
	v["scenario.compile_ms"] = lt.self("scenario.compile") * 1e3
	v["workload.build_ms"] = lt.self("workload.build") * 1e3
	run, iso := lt.self("sim.run"), lt.self("sim.isolation")
	v["sim.run_s"], v["sim.isolation_s"] = run, iso
	if b.replay.simCycles > 0 {
		v["sim.ns_per_simcycle"] = (run + iso) * 1e9 / float64(b.replay.simCycles)
	}
	v["sim.steps"] = float64(b.exec.steps)
	if b.exec.steps > 0 {
		v["sim.cycles_per_step"] = float64(b.exec.cycles) / float64(b.exec.steps)
	}
	if b.exec.cycles > 0 {
		v["sim.leapt_ratio"] = float64(b.exec.leapt) / float64(b.exec.cycles)
	}
	v["sim.periods_leapt"] = float64(b.exec.periods)
	v["sim.model.l2_accesses"] = float64(b.replay.l2Accesses)
	v["sim.model.bus_grants"] = float64(b.replay.busGrants)
	v["sim.model.mem_txns"] = float64(b.replay.memTxns)

	v["store.self_s"] = lt.self("store.get") + lt.self("store.put") + lt.self("store.put_plan")
	gets := lt.count("store.get")
	v["store.get_us_p50"] = lt.p50("store.get") / 1e3
	v["store.gets"] = float64(gets)
	if gets > 0 {
		v["store.hit_ratio"] = float64(b.storeHits) / float64(gets)
	}
	v["store.put_us_p50"] = lt.p50("store.put") / 1e3
	v["store.puts"] = float64(lt.count("store.put"))
	v["store.put_plan_us_p50"] = lt.p50("store.put_plan") / 1e3

	// The session's own time is what its store calls leave over; the
	// replay splits that into workload construction and simulation, and
	// what remains is the engine's scheduling and the session's
	// bookkeeping. The harness is the rest of a sweep's timed region,
	// outside every layer span: opening stores, the benchmark's loops and
	// the tracer itself. So the layers' self times, the leftover and the
	// harness add up to the traced wall.
	session := lt.self("session.run_all")
	if session > 0 {
		v["trace.leftover_s"] = session - lt.self("workload.build") - run - iso
	}
	traced := b.wall.Seconds()
	v["trace.wall_s"] = traced
	if lt.count("pass") > 0 {
		inLayers := lt.self("scenario.compile") + v["store.self_s"] + session +
			lt.self("report.document") + lt.self("report.decode.json")
		for _, name := range encodeSpans {
			inLayers += lt.self(name)
		}
		v["trace.harness_s"] = traced - inLayers
	}
	if untracedWall > 0 {
		v["trace.overhead_ratio"] = traced/b.meter.factor()/untracedWall - 1
	}

	v["report.document_ms"] = lt.self("report.document") * 1e3
	for i, name := range backendNames {
		v["report.encode_ms."+name] = lt.self(encodeSpans[i]) * 1e3
		if len(b.samples) > 0 {
			v["report.bytes."+name] = float64(b.bytes[i]) / float64(len(b.samples))
		}
	}
	v["report.decode_ms.json"] = lt.self("report.decode.json") * 1e3

	v["serve.submit_ms_p50"] = lt.p50("serve.submit") / 1e6
	v["serve.doc_ms_p50"] = lt.p50("serve.doc") / 1e6
	v["serve.wait_ms_p50"] = serveWaitP50(b.tr.snapshot(b.traceFrom)) / 1e6
	if n := lt.count("serve.request"); n > 0 {
		v["serve.polls_per_request"] = float64(b.polls) / float64(n)
	}
	v["serve.simulated_jobs"] = float64(b.serve.Simulated)
	v["serve.store_hits"] = float64(b.serve.StoreHits)
	return v
}

// serveWaitP50 is the median time a request waited for its document:
// from the end of its submission to the start of the fetch that returned
// the document, in nanoseconds.
func serveWaitP50(spans []span) float64 {
	submitted := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "serve.submit" && s.Req != 0 {
			submitted[s.Req] = s.End
		}
	}
	var waits []float64
	for _, s := range spans {
		if end, ok := submitted[s.Req]; ok && s.Name == "serve.doc" {
			waits = append(waits, float64(s.Start-end))
		}
	}
	return median(waits)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// bytes the Go runtime obtained from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
