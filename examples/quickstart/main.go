// Quickstart: derive the round-robin bus upper-bound delay of a platform
// from measurements alone, then compare it against the naive state of the
// art and the analytical ground truth.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rrbus"
)

func main() {
	// The paper's reference platform: a 4-core NGMP-like multicore whose
	// round-robin bus holds each transaction for at most 9 cycles, so
	// the true bound is ubd = (4-1)*9 = 27. The methodology must find
	// this number without being told any of those latencies.
	platform := rrbus.PlatformSpec{Arch: "ref"}
	cfg, err := platform.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Every measurement runs as a plan through a Session. Its store
	// records each row, so the derivation's auto-extension passes
	// simulate only the k the previous passes did not cover.
	ctx := context.Background()
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}
	res, err := rrbus.DeriveUBD(ctx, sess, platform, rrbus.DeriveOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("platform: %s (%d cores)\n", cfg.Name, cfg.Cores)
	fmt.Printf("derived ubdm      = %d cycles\n", res.UBDm)
	fmt.Printf("saw-tooth period  = %d nop steps, δnop = %.3f cycles\n", res.PeriodK, res.DeltaNop)
	fmt.Printf("detection methods = %v\n", res.Methods)
	fmt.Printf("confidence        = %.2f (utilization ≥ %.0f%%: %v)\n",
		res.Confidence.Score(), res.Confidence.MinUtilization*100, res.Confidence.UtilizationOK)

	// The naive approach — run an rsk against rsk copies and divide the
	// slowdown by the request count — underestimates because of the
	// synchrony effect (it converges to γ(δrsk), not ubd).
	naive, err := rrbus.NaiveUBDM(ctx, sess, platform, rrbus.OpLoad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive ubdm        = %d cycles (underestimates)\n", naive.UBDm)
	fmt.Printf("analytical ubd    = %d cycles (Eq. 1 ground truth)\n", cfg.UBD())

	// Using the bound: pad a task's isolation execution time with
	// nr * ubdm to obtain a contention-safe execution-time bound.
	prof, _ := rrbus.EEMBCProfile("canrdr")
	task, err := prof.Build(0, 42)
	if err != nil {
		log.Fatal(err)
	}
	isol, err := rrbus.RunIsolation(cfg, task, rrbus.RunOpts{MeasureIters: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntask %s: isolation %d cycles, %d bus requests\n", task.Name, isol.Cycles, isol.Requests)
	fmt.Printf("padded ETB = %d + %d*%d = %d cycles\n",
		isol.Cycles, isol.Requests, res.UBDm, res.ETB(isol.Cycles, isol.Requests))
}
