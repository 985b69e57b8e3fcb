// Command rrbus-store audits and repairs a content-addressed results
// store — the directory the other CLIs fill via -store. Archived
// measurements are the asset the whole methodology is built on
// ("simulate once, analyze forever"), so the store ships with tooling to
// see what a directory holds, prove it still verifies, and make it whole
// again when it does not:
//
//	rrbus-store ls <dir>       list recorded plans: name, generator,
//	                           job count and hit coverage (how many of
//	                           the plan's job hashes have a row today)
//	rrbus-store verify <dir>   walk every jobs/<hh>/<hash>.json entry
//	                           and plans/<hash>.json manifest, re-check
//	                           integrity checksums, filing and schema
//	                           versions; exit 1 on any corruption
//	rrbus-store repair <dir>   quarantine every damaged entry, then
//	                           re-simulate the missing rows from the
//	                           plan manifests that recorded their spec;
//	                           exit 1 if anything stays unrepairable
//	rrbus-store gc <dir>       list the quarantined debris and the rows
//	                           no plan manifest references; -rm drops
//	                           healed quarantine entries and the
//	                           unreferenced rows, -dry-run never removes
//	rrbus-store compact <dir>  strip the bounded trace windows out of
//	                           trace-bearing rows, preserving every
//	                           non-trace field (bounds and tables render
//	                           identically; timelines lose event detail)
//	rrbus-store push <dir> <url>  send the rows a server is missing
//	rrbus-store pull <dir> <url>  fetch the rows this store is missing
//
// push/pull transfer only the hash delta, integrity-checksummed both
// ways — the ops primitive for fanning a warm store out to workers or
// collecting a coordinator's harvest. The url is any rrbus-serve
// instance (distribute mode not required).
//
// All subcommands render through the report backends: -format text
// (default), html or json.
//
// Usage:
//
//	rrbus-store ls results/
//	rrbus-store ls -format json results/
//	rrbus-store verify results/
//	rrbus-store repair results/
//	rrbus-store repair -workers 8 results/
//	rrbus-store gc -rm results/
//	rrbus-store gc -dry-run results/
//	rrbus-store compact results/
//	rrbus-store push results/ http://host:8077
//	rrbus-store pull results/ http://host:8077
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"rrbus"
	"rrbus/internal/cli"
)

const prog cli.Program = "rrbus-store"

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rrbus-store <ls|verify|repair|gc|compact> [-format text|html|json] [-workers n] [-rm] [-dry-run] <store-dir>")
	fmt.Fprintln(os.Stderr, "       rrbus-store <push|pull> [-format text|html|json] <store-dir> <server-url>")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("rrbus-store "+cmd, flag.ExitOnError)
	format := fs.String("format", "text", "render backend: text, html or json")
	workers := fs.Int("workers", 0, "repair: simulation worker goroutines for re-simulated rows (0 = GOMAXPROCS)")
	rm := fs.Bool("rm", false, "gc: remove healed quarantine entries and unreferenced rows")
	dryRun := fs.Bool("dry-run", false, "gc/compact: report what would change without touching the store")
	switch cmd {
	case "ls", "verify", "repair", "gc", "compact", "push", "pull":
	default:
		fmt.Fprintf(os.Stderr, "rrbus-store: unknown command %q\n", cmd)
		usage()
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	wantArgs := 1
	if cmd == "push" || cmd == "pull" {
		wantArgs = 2
	}
	if fs.NArg() != wantArgs {
		usage()
	}
	backend, err := rrbus.BackendByName(*format)
	prog.Fail(err)
	dir := fs.Arg(0)
	if _, err := os.Stat(dir); err != nil && cmd != "pull" {
		// OpenDirStore would create an empty store; auditing a
		// non-existent directory is a mistake, not an empty result.
		// (pull is the exception: pulling into a fresh directory is how a
		// worker cache is seeded.)
		prog.Fail(fmt.Errorf("store %s: %w", dir, err))
	}
	st, err := rrbus.OpenDirStore(dir)
	prog.Fail(err)

	switch cmd {
	case "ls":
		ls(st, dir, backend)
	case "verify":
		verify(st, dir, backend)
	case "repair":
		repair(st, dir, *workers, backend)
	case "gc":
		gc(st, dir, *rm, *dryRun, backend)
	case "compact":
		compact(st, dir, *dryRun, backend)
	case "push":
		sync(st, dir, fs.Arg(1), true, backend)
	case "pull":
		sync(st, dir, fs.Arg(1), false, backend)
	}
}

// ls lists the store's recorded plan manifests with their current row
// coverage. The document comes from the same builder that backs the
// server's GET /v1/store/plans, so the CLI audit and the HTTP surface
// agree byte for byte in every format.
func ls(st *rrbus.DirStore, dir string, backend rrbus.Backend) {
	infos, err := st.PlanInfos()
	prog.Fail(err)
	rows, err := st.Len()
	prog.Fail(err)
	prog.Fail(rrbus.RenderTo(os.Stdout, rrbus.StorePlansDocument(dir, infos, rows), backend))
}

// verify re-checks every entry and manifest, prints the audit and exits
// nonzero on any corruption.
func verify(st *rrbus.DirStore, dir string, backend rrbus.Backend) {
	rep, err := st.Verify()
	prog.Fail(err)

	doc := &rrbus.Document{Title: "verify " + dir}
	doc.Add(rrbus.HeadingBlock{Level: 1,
		Text: fmt.Sprintf("store %s: verified %d job entries, %d plan manifests: %d issues", dir, rep.Jobs, rep.Plans, len(rep.Issues))})
	if !rep.OK() {
		t := rrbus.TableBlock{
			Name:   "issues",
			Header: "path  error",
			Columns: []rrbus.Column{
				{Key: "path", Label: "path", Format: "%s"},
				{Key: "error", Label: "error", Format: "  %s"},
			},
		}
		for _, is := range rep.Issues {
			t.Rows = append(t.Rows, rrbus.RowBlock{Cells: []rrbus.Value{rrbus.StringV(is.Path), rrbus.StringV(is.Err)}})
		}
		doc.Add(t)
	}
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
	if !rep.OK() {
		os.Exit(1)
	}
}

// repair quarantines every damaged entry, re-simulates the missing rows
// from the plan manifests that recorded their spec, prints the repair
// report, and exits nonzero if the store could not be made whole. The
// first SIGINT/SIGTERM drains the in-flight re-simulation gracefully
// (completed rows stay recorded), a second one kills the process.
func repair(st *rrbus.DirStore, dir string, workers int, backend rrbus.Backend) {
	ctx, stop := rrbus.SignalContext()
	defer stop()
	rep, err := st.Repair(ctx, workers)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "rrbus-store: interrupted; %d rows re-simulated so far stay recorded — re-run repair to finish\n", rep.Resimulated)
		os.Exit(130)
	}
	prog.Fail(err)

	doc := &rrbus.Document{Title: "repair " + dir}
	doc.Add(rrbus.HeadingBlock{Level: 1,
		Text: fmt.Sprintf("store %s: scanned %d entries: quarantined %d, replayed %d plans, re-simulated %d rows",
			dir, rep.Scanned, rep.Quarantined, rep.PlansReplayed, rep.Resimulated)})
	if len(rep.Unrepairable) > 0 {
		t := rrbus.TableBlock{
			Name:    "unrepairable",
			Header:  "missing job hash (manifest has no spec to re-derive it)",
			Columns: []rrbus.Column{{Key: "hash", Label: "hash", Format: "%s"}},
		}
		for _, h := range rep.Unrepairable {
			t.Rows = append(t.Rows, rrbus.RowBlock{Cells: []rrbus.Value{rrbus.StringV(h)}})
		}
		doc.Add(t)
	}
	if len(rep.Issues) > 0 {
		t := rrbus.TableBlock{
			Name:   "issues",
			Header: "path  error",
			Columns: []rrbus.Column{
				{Key: "path", Label: "path", Format: "%s"},
				{Key: "error", Label: "error", Format: "  %s"},
			},
		}
		for _, is := range rep.Issues {
			t.Rows = append(t.Rows, rrbus.RowBlock{Cells: []rrbus.Value{rrbus.StringV(is.Path), rrbus.StringV(is.Err)}})
		}
		doc.Add(t)
	}
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
	if !rep.OK() {
		os.Exit(1)
	}
}

// gc lists the quarantine directory — hash, healed status, reason — and
// the job rows no plan manifest references. With -rm it drops the
// quarantine entries whose hash holds a healthy row again and the
// unreferenced rows; -dry-run reports without removing anything and
// wins over -rm.
func gc(st *rrbus.DirStore, dir string, rm, dryRun bool, backend rrbus.Backend) {
	infos, err := st.Quarantined()
	prog.Fail(err)
	orphans, err := st.Unreferenced()
	prog.Fail(err)
	removed, dropped := 0, 0
	if rm && !dryRun {
		for _, q := range infos {
			if q.Healed {
				prog.Fail(st.RemoveQuarantined(q.Hash))
				removed++
			}
		}
		for _, h := range orphans {
			prog.Fail(st.RemoveJob(h))
			dropped++
		}
	}

	doc := &rrbus.Document{Title: "gc " + dir}
	head := fmt.Sprintf("store %s: %d quarantined entries, %d unreferenced rows", dir, len(infos), len(orphans))
	if rm && !dryRun {
		head += fmt.Sprintf(", removed %d healed, dropped %d unreferenced", removed, dropped)
	}
	if dryRun {
		head += " (dry run)"
	}
	doc.Add(rrbus.HeadingBlock{Level: 1, Text: head})
	if len(infos) > 0 {
		t := rrbus.TableBlock{
			Name:   "quarantine",
			Header: "hash          healed  reason",
			Columns: []rrbus.Column{
				{Key: "hash", Label: "hash", Format: "%-12.12s"},
				{Key: "healed", Label: "healed", Format: "  %-6s"},
				{Key: "reason", Label: "reason", Format: "  %s"},
			},
		}
		for _, q := range infos {
			healed := "no"
			if q.Healed {
				healed = "yes"
			}
			status := healed
			if rm && q.Healed {
				status = "rm"
			}
			t.Rows = append(t.Rows, rrbus.RowBlock{Cells: []rrbus.Value{
				rrbus.StringV(q.Hash), rrbus.StringV(status), rrbus.StringV(q.Reason),
			}})
		}
		doc.Add(t)
	}
	if len(orphans) > 0 {
		t := rrbus.TableBlock{
			Name:   "unreferenced",
			Header: "hash          action",
			Columns: []rrbus.Column{
				{Key: "hash", Label: "hash", Format: "%-12.12s"},
				{Key: "action", Label: "action", Format: "  %s"},
			},
		}
		action := "keep"
		if rm && !dryRun {
			action = "rm"
		} else if dryRun {
			action = "would rm"
		}
		for _, h := range orphans {
			t.Rows = append(t.Rows, rrbus.RowBlock{Cells: []rrbus.Value{
				rrbus.StringV(h), rrbus.StringV(action),
			}})
		}
		doc.Add(t)
	}
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
}

// compact strips the bounded trace windows out of every trace-bearing
// row, rewriting the entries in place with fresh integrity checksums.
// Every non-trace field survives, so bounds and tables re-render
// byte-identically; -dry-run only sizes the savings.
func compact(st *rrbus.DirStore, dir string, dryRun bool, backend rrbus.Backend) {
	rep, err := st.Compact(dryRun)
	prog.Fail(err)

	doc := &rrbus.Document{Title: "compact " + dir}
	head := fmt.Sprintf("store %s: scanned %d rows, compacted %d trace-bearing, stripped %d trace events, saved %d bytes",
		dir, rep.Scanned, rep.Compacted, rep.TraceEvents, rep.BytesSaved)
	if dryRun {
		head += " (dry run)"
	}
	doc.Add(rrbus.HeadingBlock{Level: 1, Text: head})
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
}

// sync pushes the server's missing rows up (push) or fetches this
// store's missing rows down (pull) — delta only, diffed by content hash
// against the rrbus-serve instance at url.
func sync(st *rrbus.DirStore, dir, url string, push bool, backend rrbus.Backend) {
	ctx, stop := rrbus.SignalContext()
	defer stop()
	var rep *rrbus.StoreSyncReport
	var err error
	verb, prep := "pull", "from"
	if push {
		verb, prep = "push", "to"
		rep, err = rrbus.PushStore(ctx, st, url, nil)
	} else {
		rep, err = rrbus.PullStore(ctx, st, url, nil)
	}
	prog.Fail(err)

	doc := &rrbus.Document{Title: verb + " " + dir}
	doc.Add(rrbus.HeadingBlock{Level: 1,
		Text: fmt.Sprintf("store %s: %s %s: %d local rows, %d remote rows, %d transferred, %d duplicate",
			dir, verb, prep+" "+url, rep.LocalRows, rep.RemoteRows, rep.Transferred, rep.Duplicate)})
	prog.Fail(rrbus.RenderTo(os.Stdout, doc, backend))
}
