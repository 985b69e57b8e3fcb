// Package cli is the wiring the rrbus commands share: the error exit, the
// store accounting lines on stderr, the drained-interrupt exit and the
// check that refuses classic flags next to -scenario. Every message starts
// with the program name, which is the only thing the commands differ in.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"rrbus"
)

// Program is a command's name; its methods prefix every message with it.
type Program string

// Fail prints err and exits with status 1; a nil err does nothing.
func (p Program) Fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", p, err)
		os.Exit(1)
	}
}

// OpenStore opens the results store directory named by -store ("" = none).
func (p Program) OpenStore(dir string) rrbus.Store {
	if dir == "" {
		return nil
	}
	st, err := rrbus.OpenDirStore(dir)
	p.Fail(err)
	return st
}

// ReportStore prints the session's reuse accounting to stderr — the line
// the CI cache-reuse smoke greps to prove a warm run simulated nothing —
// plus, when the run had to heal or retry, the resilience accounting the
// chaos smoke greps. Storeless runs print nothing.
func (p Program) ReportStore(sess *rrbus.Session, st rrbus.Store) {
	if st == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: store: %d hits, %d simulated\n", p, sess.StoreHits(), sess.Simulated())
	p.ReportHealed(sess.Quarantined(), sess.Repaired())
	if r := sess.Retried(); r > 0 {
		fmt.Fprintf(os.Stderr, "%s: store: retried %d transient errors\n", p, r)
	}
}

// ReportHealed prints the corruption-healing line when any entry was
// quarantined.
func (p Program) ReportHealed(quarantined, repaired int64) {
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "%s: store: quarantined %d corrupt entries, repaired %d\n", p, quarantined, repaired)
	}
}

// ExitIfInterrupted turns a drained cancellation into the partial-progress
// exit (130, the SIGINT convention): completed rows were flushed to the
// store and any -out file, so re-running the same command resumes warm.
// Any other err returns.
func (p Program) ExitIfInterrupted(err error, st rrbus.Store) {
	if !errors.Is(err, context.Canceled) {
		return
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted; completed rows are flushed — re-run the same command to resume warm\n", p)
	} else {
		fmt.Fprintf(os.Stderr, "%s: interrupted (add -store to make interrupted sweeps resumable)\n", p)
	}
	os.Exit(130)
}

// RejectWithScenario exits with status 2 when any of the named flags was
// set explicitly: a scenario file (or saved document) defines what those
// flags would, and silently ignoring one would measure or render something
// other than what the user asked for.
func (p Program) RejectWithScenario(names ...string) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, n := range names {
		if set[n] {
			fmt.Fprintf(os.Stderr, "%s: -%s conflicts with -scenario (the scenario file defines it)\n", p, n)
			os.Exit(2)
		}
	}
}
