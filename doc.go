// Package rrbus reproduces "Increasing Confidence on Measurement-Based
// Contention Bounds for Real-Time Round-Robin Buses" (Fernandez et al.,
// DAC 2015) as a library: a cycle-accurate NGMP-like multicore simulator,
// the paper's resource-stressing kernels (rsk, rsk-nop), and the
// measurement-based methodology that derives the round-robin upper-bound
// delay ubd from the saw-tooth period of rsk-nop slowdowns — without
// knowing any bus latency.
//
// # Quick start: Plan → Run → Store → Document → Backend
//
// The public API is the measurement pipeline itself. A Plan compiles a
// declarative experiment into a content-addressed job list; a Session
// runs it, serving any job the results Store has already recorded
// instead of re-simulating it; DocumentFor rebuilds the paper's
// figures, tables and bounds from the recorded rows alone as a typed
// Document — an ordered list of blocks (headings, typed-column tables,
// sweep series, trace-event timelines, γ histograms, derived-bound
// summaries) — and a Backend encodes the Document as terminal text,
// a self-contained HTML page with inline SVG charts, or
// schema-versioned JSON:
//
//	plan, err := rrbus.GeneratorPlan("fig7", rrbus.Params{"arch": "ref", "kmax": 60})
//	if err != nil { ... }
//	store, err := rrbus.OpenDirStore("results")   // shareable, integrity-checked
//	if err != nil { ... }
//
//	sess := &rrbus.Session{Store: store}
//	results, err := sess.RunAll(plan)             // cold: simulates and records
//	if err != nil { ... }
//	doc, err := rrbus.DocumentFor(plan, results)  // the Fig. 7 sweep, from rows alone
//	if err != nil { ... }
//
//	err = rrbus.RenderTo(os.Stdout, doc, rrbus.TextBackend{})  // classic terminal bytes
//	err = rrbus.RenderTo(htmlFile, doc, rrbus.HTMLBackend{})   // single-file page, SVG charts
//	err = rrbus.RenderTo(jsonFile, doc, rrbus.JSONBackend{})   // machine-readable, versioned
//
// The JSON encoding is lossless: DecodeDocument reads it back into an
// identical Document, so an archived document re-renders through any
// backend without touching the original results. Running the same plan
// again — or any plan whose jobs overlap it, like a derivation sweep
// over the same k range — simulates only the delta:
//
//	warm := &rrbus.Session{Store: store}
//	results, err = warm.RunAll(plan)              // warm: zero simulations
//	fmt.Println(warm.Simulated(), warm.StoreHits())   // 0 60
//
// and builds byte-identical output, because every renderer consumes
// only recorded rows — the text backend is golden-tested to reproduce
// the pre-Document renderers byte for byte. One-call derivation runs
// the same way, as plans through a Session:
//
//	ref := rrbus.PlatformSpec{Arch: "ref"}  // 4-core NGMP, ubd = 27
//	res, err := rrbus.DeriveUBD(ctx, sess, ref, rrbus.DeriveOptions{})
//	if err != nil { ... }
//	fmt.Println(res.UBDm)                   // 27, from measurements alone
//
// DeriveUBD compiles the derivation sweep at a first kmax and runs it on
// sess; while the series covers fewer than two saw-tooth periods it
// doubles kmax (up to KLimit) and runs the longer plan on the same
// session, whose store serves every k already measured — each extension
// simulates only its new jobs (a storeless session re-simulates them
// all). NaiveUBDM measures the naive det/nr baseline as one more job,
// and Summary runs both per platform to build the headline table.
//
// The derived bound pads execution-time bounds for measurement-based timing
// analysis (§4.3): ETB = ExecTime_isolation + nr * ubdm, where nr is the
// task's bus-request count read from a PMC. The etb generator runs that
// check as a plan: the task alone (its isolation time and nr), then
// against Nc−1 rsk and against count random task sets, every job on one
// seed. Its renderer prints the bound with each contended run's verdict
// (HOLDS or VIOLATED) and headroom. ubdm (default Eq. 1) enters no job
// hash, so one set of stored rows checks any ubdm:
//
//	echo '{"generator":"etb","params":{"task":"tblook","seed":7,"ubdm":27}}' > etb.json
//	rrbus-figures -scenario etb.json -store results/
//
// It enters no plan hash either, so rrbus-serve, which tracks plans by
// that hash, keeps the ubdm first submitted for a task, seed and count.
// examples/automotive derives ubdm and runs the etb plan on one Session.
//
// # Layers
//
// The facade re-exports the layered implementation:
//
//   - internal/sim, cpu, cache, bus, mem: the simulated platform
//     (substitute for the authors' validated NGMP simulator + DRAMsim2)
//   - internal/kernel: rsk(t), rsk-nop(t,k) and the δnop nop-kernel
//   - internal/core: the derivation methodology over recorded series
//     (Eq. 3 period detection, confidence checks), plus the naive det/nr
//     baseline it improves on
//   - internal/workload: EEMBC-Autobench-like synthetic tasks
//   - internal/analytic: closed forms (Eq. 1 ubd, Eq. 2 γ(δ))
//   - internal/trace, stats, pmc: observation tooling
//   - internal/exp: the experiment engine that fans independent
//     simulations out across a worker pool
//   - internal/scenario: the declarative measurement layer (JSON
//     scenarios, generators, canonical content hashing, JSONL recording)
//   - internal/store: the content-addressed results store (in-memory
//     and directory-backed) and the store-aware Session runner
//   - internal/report: the analysis layer — every figure/table/bound
//     rebuilt from recorded results as a typed Document, plus the
//     text/HTML/JSON render backends
//   - internal/serve: the bound-as-a-service HTTP layer over the store
//     (plan submission, status, documents, Prometheus metrics)
//
// Everything is deterministic and uses only the standard library.
//
// # Experiment engine
//
// Every artifact of the paper's evaluation — the figures, the summary
// table, the ablations — is a batch of independent cycle-accurate
// simulations. internal/exp runs such batches on a bounded worker pool
// (GOMAXPROCS workers by default) while keeping a strict determinism
// contract:
//
//   - results are folded back in job-index order, never completion order,
//     so a batch run with 1 worker and with N workers produces
//     byte-identical rendered output (internal/exp's determinism tests
//     regenerate real figures under both settings and compare bytes);
//   - each job builds its own System — no simulator state is shared
//     between workers;
//   - errors are deterministic: the lowest-indexed failing job wins.
//
// The CLIs put their -workers flag on each Session they build
// (Session.Workers, 0 = GOMAXPROCS); -workers 1 recovers fully serial
// execution on the calling goroutine. Each batch bounds only its own
// goroutines: there is no process-wide budget, and rrbus-serve sizes its
// in-process pool as -plans × -workers.
//
// Inside each worker the simulator itself is allocation-free in steady
// state (pooled bus requests and memory transactions, dense histograms)
// and event-driven: instead of ticking every component every cycle,
// each component reports the next cycle at which its state can change
// (a core's stall horizon, the bus's next completion or earliest
// deferred submission, the memory controller's next transaction edge),
// the scheduler takes the minimum, and the clock jumps straight there —
// ticking only the components that are actually due. Stalls in between
// are charged in closed form, and a core that discovers a cache miss
// while its bus port is free registers the request for its future ready
// cycle ("deferred submission") rather than burning steps walking up to
// it. The benchmark's traced run (perfbench/run.sh --trace 1) reports
// the resulting dead-time elimination as sim.cycles_per_step —
// simulated cycles per executed step.
//
// The event core is exact, not approximate: grant traces, γ histograms,
// PMC snapshots, per-core stall counters and every Measurement field
// are bit-identical to the cycle-by-cycle loop, and the legacy loop is
// kept as the oracle behind that guarantee. internal/sim's equivalence
// suite diffs the two modes over seeded random workload mixes under
// round-robin, WRR and TDMA arbitration, and CI diffs the recorded
// JSONL rows of a whole scenario run between the modes byte for byte.
// Fall back to cycle-by-cycle execution when you want it: per run with
// RunOpts.Engine = EngineOracle, per pipeline run with Session.Engine,
// or with the rrbus-sim -no-fast-forward flag. The main reason to fall
// back is observation granularity — a RunUntil predicate is probed once
// per executed step, so a predicate that compares Cycle() against a
// threshold can observe the clock after it has already jumped past that
// threshold. Express run-until conditions in simulated state (iterations
// retired, a counter reaching a value) and pass cycle limits as
// maxCycles; internal/sim's tests turn on a per-System predicate check
// that makes the footgun panic. Runs of instructions that cannot touch
// the bus (nops, IALUs of any latency and branches) on one fetch line
// execute as one batched step so the jumps compound; the equivalence
// tests cover the batching too.
//
// # Engine modes
//
// The simulator has three engine modes, each a strict optimization of the
// previous with bit-identical results. One Engine value selects the mode:
// RunOpts.Engine for a single run, Session.Engine for every job of a
// pipeline run, and the rrbus-sim flags for the command line.
//
//   - cycle-by-cycle: the legacy oracle loop; every component ticks every
//     cycle (EngineOracle; rrbus-sim -no-fast-forward);
//   - event-driven: the scheduler jumps from event to event (the
//     substrate of the default; EngineEvent or rrbus-sim
//     -no-steady-state selects it alone);
//   - steady-state memoization: on top of event-driven execution, the
//     engine fingerprints the complete architectural state at the
//     measured core's iteration boundaries; a recurring fingerprint
//     proposes a period, and when the exact state one period later
//     equals the state where it recurred, with identical observable
//     deltas over both periods, the system is in a periodic fixed point
//     and whole periods are extrapolated in closed form — counters
//     advance by multiples of the verified per-period delta, every
//     absolute cycle shifts by the leap — instead of being simulated
//     (EngineSteady, the zero value and the default).
//
// The determinism guarantee is unconditional: the fingerprint only
// proposes a period, and a leap happens only after the full canonical
// state stream (cores, store buffers, cache sets and replacement order,
// bus arbiter and queues, memory-controller edges, scheduler wakes)
// recorded where the fingerprint recurred (T1) equals, word for word,
// the stream one period later (T1 + P), and the observable deltas of the
// two periods are equal. A deterministic simulator that revisits a state
// exactly must replay it, so the extrapolated span is exactly what
// execution would have produced, whatever fingerprint proposed the
// period: a fingerprint collision costs one failed confirmation, never a
// wrong leap. That lets the fingerprint be cheap — each cache re-hashes
// only the sets whose state changed since the last observation, so a
// cache digest costs in proportion to the sets that changed. The
// three-way equivalence suite diffs full Measurements (γ and contender
// histograms and PMCs included) across all modes, and CI records three
// scenarios in all three — one of them an isolation-paired job with an
// idle core, one with EEMBC-like contenders whose cores issue
// mixed-latency instruction batches — and compares the JSONL bytes.
//
// The fingerprint and the state stream deliberately leave out what no
// future step reads: a finished core's next-free cycle, the markers of an
// instruction batch that has fully issued, and a core's read point (the
// cycle of its latest tick) outside such a batch. Hashed as distances to the clock, these
// drift on every core that is not being ticked — forever on a halted
// one — and such a run's state would never recur. For the same reason
// the idle filler cores sim.Run
// places on empty core slots run one iteration and halt: their single
// instruction fetch is all the bus traffic an idle core makes, and once
// halted they add a constant to the state, so isolation runs and
// runs with idle slots settle and leap like contended ones. Workloads that
// never settle into a period (aperiodic mixes) simply never leap — a
// bounded observation budget then switches the detector off. Runs that
// need exact per-event observation disable memoization automatically:
// any TraceLimit or OnGrant/OnSubmit hook forces every event to
// execute. The same traced run reports the effect as sim.leapt_ratio
// (the share of simulated cycles leapt) and sim.periods_leapt next to
// sim.cycles_per_step.
//
// # Scenarios, streaming and sharding
//
// internal/scenario adds a declarative layer on top: a Scenario is a
// JSON document naming the platform (stock ref/var/toy plus overrides —
// geometry, latencies, arbitration policy including WRR weights and TDMA
// slots), the per-core workloads (the rsk:load / rsknop:store:12 /
// profile task-spec grammar of internal/workload), and the measurement
// protocol. Jobs pair a scenario with an optional isolation run; named
// generators (abl-arb, abl-dnop, abl-scaling, derive, etb, fig2, fig3,
// fig4, fig5, fig6a, fig6b, fig7, fig7a, fig7b, mix) expand parameters
// into the job lists behind each paper figure, ablation, derivation
// sweep and the §4.3 bound check — so arbitrary user-defined experiments
// run from a file, with no code edits.
//
// Execution is streaming: exp.StreamShard delivers each job's result to
// an exp.Sink in job-index order as soon as its predecessors are
// delivered, not after the batch — a JSONL file fills while later jobs
// still run.
// exp.Shard{Index, Count} deterministically selects every Count-th job,
// so one job list splits across machines:
//
//	rrbus-figures -scenario sweep.json -shard 0/2 -out s0.jsonl   # A
//	rrbus-figures -scenario sweep.json -shard 1/2 -out s1.jsonl   # B
//	rrbus-figures -merge -out merged.jsonl s0.jsonl s1.jsonl
//
// Every JSONL row carries its job index, rows are emitted in index
// order, and each row's bytes depend only on its job — so the merged
// shard files are byte-identical to an unsharded run's output (CI proves
// it on a Fig. 7 sweep every push). rrbus-derive shards the same way:
// its -merge mode reassembles the slowdown series from shard files and
// runs the period detection (core.DeriveFromSeries) over the merged
// measurements. CI's count gate (.github/perfbench-counts.py) guards the
// work all of this does: it runs each benchmark workload at one seed and
// fails when the rows, simulator steps, leaps, model events or store
// operations differ from the committed golden, counts that repeat
// exactly for a seed.
//
// # Results-first analysis: simulate once, analyze forever
//
// Measurement and analysis are fully decoupled. The measurement side
// (internal/scenario + internal/exp) produces recorded results — one
// self-describing row per job, optionally carrying γ histograms and a
// bounded bus-event trace window (Protocol.Trace → sim.RunOpts.
// TraceLimit → Measurement.Trace) for the timeline figures. The
// analysis side (internal/report) is a set of pure renderers over
// (jobs, results) that build typed Documents: gamma tables, timelines,
// histograms, sweeps, ablation tables and derived bounds are all
// rebuilt from the records alone — report never calls sim.Run, and
// bound derivation re-runs only core.DeriveFromSeries with δnop taken
// from the in-band calibration row every derivation-shaped generator
// emits.
//
// Presentation is a separate, final stage: a Backend encodes a
// Document, and the CLIs expose the choice as -format text|html|json
// (rrbus-figures, rrbus-derive, and rrbus-sim's scenario table). The
// text backend reproduces the pre-Document output byte for byte —
// golden tests pin every generator — so the byte-identity contract
// survives the redesign; the HTML backend draws fig2/fig5 timelines
// and fig7* sweeps as inline SVG in one self-contained file; the JSON
// backend carries a document schema version mirroring the Result row's,
// and rrbus-figures -doc re-renders a saved JSON document through any
// backend.
//
// Because the job list is a pure function of the plan and every
// renderer consumes only records, rendering is replayable: rrbus-figures
// and rrbus-derive accept -from <results.jsonl> and reproduce the live
// run's output byte for byte without simulating (CI replays a recorded
// sweep and cmp's the bytes every push). The -fig flags and the figure
// tests run through exactly the same path — expand generator, record
// results, render — so the live artifacts and the archived ones can
// never drift apart. The headline summary table (Summary, -fig table)
// runs its auto-extending derivations and naive jobs as plans through
// one Session too, so -store serves it like any figure.
//
// # The results store: measure once, reuse everywhere
//
// Recorded rows are also reusable across runs and plans. Every Job has
// a content hash — a sha256 over the canonicalized scenario (labels
// stripped, build defaults made explicit) plus the isolation pairing,
// encoded by hand into exactly the JSON json.Marshal writes — and a
// compiled Plan hashes its ordered job list; a committed golden pins
// these addresses, since a drifting hash would orphan every stored row.
// A Store keys rows by job hash: the in-memory MemStore for in-process
// pipelines, the directory-backed DirStore (integrity-checked entries under
// jobs/<hh>/<hash>.json plus per-plan manifests under plans/) for
// sharing across processes and machines. A Session consults the store
// before simulating, records fresh rows as they stream, and counts
// hits vs simulations; since job hashes ignore labeling, a derivation
// sweep reuses the rows a Fig. 7 sweep recorded even though their job
// IDs differ. Stored entries carry a checksum and a schema version: a
// bit-flipped entry or an archive written by a newer build surfaces as
// an error, never as a silently wrong bound. Every entry is one line in
// the one framing DirStore writes, which a read cuts apart in place
// before decoding the row once (in one pass without reflection; only a
// row in another shape, such as one a build with a different Result
// wrote, goes through json.Unmarshal), so an entry in any other shape is
// corrupt; and a DirStore refuses any job or plan hash but 64 lowercase
// hex digits before it names a file. A warm re-run reads the
// store and writes nothing: a plan manifest is rewritten only when its
// bytes change (a new name for the plan, or a damaged file). The CLIs
// expose all of this as -store <dir>; CI re-runs a sweep against a warm
// store every push and asserts it simulates nothing, leaves every file
// of the store untouched and renders identical bytes.
//
// The store is auditable: cmd/rrbus-store lists a directory's recorded
// plan manifests with their current row coverage (`rrbus-store ls`) and
// re-verifies every entry's integrity checksum, filing and schema
// (`rrbus-store verify`, nonzero exit on corruption) — the audit the
// "measure once" contract rests on.
//
// # Resilience: cancellation, self-healing, retries
//
// Long sweeps fail in boring ways — a Ctrl-C, a bit-flipped archive
// entry, a flaky network filesystem — and because every row is
// re-derivable from its content-addressed scenario, none of them need
// to cost more than the rows actually lost.
//
// Cancellation is graceful drain. Every pipeline entry point has a
// context-taking form (Session.RunContext, RunAllContext,
// RunToFileContext; exp.StreamShard underneath): when the
// context is cancelled, no new jobs launch, in-flight jobs finish, and
// the completed contiguous prefix of rows is delivered to the sink —
// and recorded in the store — before ctx.Err() is returned. The CLIs
// wire this to SignalContext: the first SIGINT/SIGTERM drains, prints
// the partial-progress store summary and exits 130; a second signal
// kills the process. Because completed rows were flushed, re-running
// the same command resumes warm and simulates only the unfinished
// jobs.
//
// Corruption heals instead of failing. When a Session reads a store
// entry whose integrity checksum no longer matches (CorruptError), and
// the store can quarantine (DirStore, MemStore), the damaged entry is
// moved to quarantine/<hash>.json alongside a <hash>.reason file, the
// job re-simulates as if it were a store miss, and the fresh row is
// recorded in the entry's place — the sweep completes byte-identical
// to a clean run, with Session.Quarantined and Session.Repaired
// counting the healings. Entries written by a newer schema are
// deliberately NOT healed: that data is valid, this build just cannot
// read it, so it surfaces as an error. rrbus-store repair performs the
// same healing offline for a whole directory (quarantining damaged and
// misfiled entries, then re-simulating everything missing from the
// plan manifests that recorded their spec), and rrbus-store gc lists
// and drops the quarantined debris once its hashes hold healthy rows
// again.
//
// Transient store I/O errors retry with exponential backoff. A
// Session with a RetryPolicy ({Max, BaseDelay}; DefaultRetry is
// 3 × 25ms, the CLIs' setting) retries reads and writes that fail with
// a TransientError, with deterministic ±25% jitter derived from the
// job hash — corruption and schema errors are never retried, they have
// their own paths above. Session.Retried counts the recoveries, and
// every store error a Session reports names the job ID and the content
// hash of the entry involved.
//
// All of it is testable under injected faults: internal/store's Faulty
// wraps any Store and deterministically injects transient errors,
// latency and read-side corruption every Nth operation (counter-based,
// so a schedule is reproducible); the chaos tests next to it prove
// sweeps complete byte-identical under faults, one of them with every
// fault kind at once under DefaultRetry, and internal/serve's tests do
// the same for a local and a distribute-mode server.
//
// # Serving: the store over HTTP
//
// NewServer turns a store into a long-running bound service —
// cmd/rrbus-serve is the thin daemon over it. Clients POST the same
// plan JSON a scenario file holds; the server compiles it, diffs the
// job hashes against the store, and queues only the missing jobs for a
// pool of in-process workers (ServeOptions caps concurrently running
// plans and sizes the pool):
//
//	POST /v1/plans             submit a plan; 202 + status JSON
//	GET  /v1/plans             list submitted plans
//	GET  /v1/plans/{hash}      status + the latest run's live counters
//	GET  /v1/plans/{hash}/doc  rendered document (?format=text|html|json)
//	GET  /v1/store/plans       the `rrbus-store ls` audit over HTTP
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness
//
// Warm versus cold is the whole point. A plan whose rows are all
// recorded — by a previous submission, a CLI sweep against the same
// directory, or a shard merged in from another machine — serves its
// document with zero simulation, byte-identical to the CLI render of
// the same plan, with the plan content hash as the ETag. A cold or
// partial plan simulates exactly the missing hashes; poll the status
// endpoint (queued → simulating → complete, with the run's
// Simulated/StoreHits/Quarantined/Repaired counts) until the document
// is ready; each row is read once. Submissions are doubly
// deduplicated: a plan already queued or running absorbs resubmissions,
// and overlapping plans wait on one queued row per job hash — simulated
// for the plan that queued it first, a store hit for the others. A job
// that fails to simulate fails every plan waiting on it. /metrics
// exposes the same counters plus the queue's gauges and simulator-core
// throughput (cycles, extrapolated cycles, cycles/s) in the Prometheus
// text format with no dependency.
//
// Shutdown is the store section's graceful drain, served: on the first
// SIGINT/SIGTERM rrbus-serve stops listening, queued and running plans
// are marked interrupted, the in-process workers finish the job they
// hold (completed rows stay recorded — resubmitting resumes warm), and
// Drain returns the summed counters for the exit report. A second
// signal kills. The
// /healthz probe flips to 503 the moment the drain begins, before the
// listener closes, so load balancers and workers stop routing to a
// dying server while its in-flight work lands.
//
// # Distribution: scattering a sweep across machines
//
// A Server started with ServeOptions.Distribute is a coordinator: the
// plan runs the same way, but its in-process pool is empty, and any
// number of Workers (cmd/rrbus-worker) lease the queued jobs over three
// endpoints:
//
//	POST /v1/work/register     announce a worker; returns lease terms
//	POST /v1/work/lease        lease a batch of compiled jobs + hashes
//	POST /v1/work/results      deliver rows; renew or release the lease
//	GET  /v1/store/jobs        list stored row hashes (the sync diff)
//	POST /v1/store/jobs        push rows directly into the store
//	POST /v1/store/fetch       fetch rows by hash (the pull side)
//
// A worker runs its leased jobs through an ordinary local store-aware
// Session — retry, quarantine and healing semantics unchanged, and a
// Dir-backed worker store doubles as a warm cache — and streams the
// rows back, each delivery renewing its lease. The protocol leans
// entirely on content addressing. Idempotence: rows are keyed by job
// content hash and every honest writer produces the same bytes, so a
// double delivery is a duplicate, not a conflict. Integrity: a wire
// row carries the store's own checksum over the canonical row bytes,
// re-verified before ingest; a corrupted transfer is rejected and its
// job requeued, never recorded. At-least-once completion: leases have
// deadlines, a killed worker's lease expires and its un-ingested jobs
// requeue automatically (a draining worker releases its lease
// explicitly, requeueing at once), so a crash never strands a sweep. A
// job that fails to simulate is not requeued: the worker's release
// names it with the error, and every plan waiting on it fails. Version
// skew is refused at the edge — a worker whose build hashes a leased
// job differently declines it rather than record rows under addresses
// the coordinator never asked for. The coordinator's own store work,
// the diff's reads and the recording of delivered rows, retries
// transient errors under ServeOptions.Retry, and the plan status counts
// the retries as Retried.
//
// Byte-identity survives distribution: a plan simulated by a
// coordinator plus any number of workers — including workers killed
// mid-sweep — renders exactly the bytes a single-process run produces,
// because the coordinator hands each plan the very rows it records.
//
// PushStore and PullStore (rrbus-store push/pull) sync two stores by
// hash delta: list the remote's hashes, diff against the local store,
// transfer only the missing rows, checksum-verified in both
// directions. A pushed row that satisfies a queued job completes it
// directly — seeding a coordinator from a warm cache means the fleet
// only ever simulates genuinely new work. See examples/dist for the
// whole fabric driven in-process.
package rrbus
