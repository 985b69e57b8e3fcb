// Automotive: an MBTA-style end-to-end use of the derived bound, on the
// EEMBC-Autobench-like workloads the paper evaluates with.
//
// For a CAN-handling task we (1) measure its isolation execution time and
// bus-request count nr, (2) derive ubdm once for the platform with the
// rsk-nop methodology, (3) pad the bound: ETB = et_isol + nr*ubdm, and
// (4) validate the bound against the task's observed execution times in
// random 4-task workloads — including against three bus-hammering rsk.
//
// Run with:
//
//	go run ./examples/automotive
package main

import (
	"context"
	"fmt"
	"log"

	"rrbus"
)

func main() {
	cfg := rrbus.ReferenceNGMP()

	// Step 1: the task under analysis.
	prof, ok := rrbus.EEMBCProfile("tblook")
	if !ok {
		log.Fatal("profile tblook missing")
	}
	task, err := prof.Build(0, 7)
	if err != nil {
		log.Fatal(err)
	}
	opts := rrbus.RunOpts{WarmupIters: 2, MeasureIters: 10}
	isol, err := rrbus.RunIsolation(cfg, task, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task %s: isolation %d cycles, nr=%d bus requests (PMC)\n",
		task.Name, isol.Cycles, isol.Requests)

	// Step 2: derive the platform's ubd from measurements, run as plans
	// through a Session.
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}
	res, err := rrbus.DeriveUBD(context.Background(), sess, rrbus.PlatformSpec{Arch: "ref"}, rrbus.DeriveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived ubdm = %d cycles (confidence %.2f)\n", res.UBDm, res.Confidence.Score())

	// Step 3: pad.
	etb := res.ETB(isol.Cycles, isol.Requests)
	fmt.Printf("ETB = %d + %d×%d = %d cycles\n\n", isol.Cycles, isol.Requests, res.UBDm, etb)

	// Step 4: validate against observed workloads.
	fmt.Println("observed execution times under contention:")
	worst := isol.Cycles
	for i, ts := range rrbus.RandomTaskSets(6, cfg.Cores, 99) {
		progs, err := ts.Build()
		if err != nil {
			log.Fatal(err)
		}
		// Replace the first task with our scua; the others contend.
		m, err := rrbus.Run(cfg, rrbus.Workload{Scua: task, Contenders: progs[1:]}, opts)
		if err != nil {
			log.Fatal(err)
		}
		if m.Cycles > worst {
			worst = m.Cycles
		}
		fmt.Printf("  workload %d %-28v %8d cycles (%.1f%% of ETB)\n",
			i, ts.Names[1:], m.Cycles, 100*float64(m.Cycles)/float64(etb))
	}

	// The adversarial case: three bus-hammering rsk contenders.
	b := rrbus.NewKernelBuilder(cfg)
	var rsk []*rrbus.Program
	for c := 1; c < cfg.Cores; c++ {
		p, err := b.RSK(c, rrbus.OpLoad)
		if err != nil {
			log.Fatal(err)
		}
		rsk = append(rsk, p)
	}
	m, err := rrbus.Run(cfg, rrbus.Workload{Scua: task, Contenders: rsk}, opts)
	if err != nil {
		log.Fatal(err)
	}
	if m.Cycles > worst {
		worst = m.Cycles
	}
	fmt.Printf("  vs 3×rsk(load)                        %8d cycles (%.1f%% of ETB)\n",
		m.Cycles, 100*float64(m.Cycles)/float64(etb))

	fmt.Printf("\nworst observed %d ≤ ETB %d: bound holds with %.1f%% headroom\n",
		worst, etb, 100*(float64(etb)/float64(worst)-1))
}
