// Storebuffer: reproduce the paper's store experiment (Fig. 7(b)).
//
// Stores retire into the store buffer and only stall the pipeline when the
// buffer is full, so their contention is partially hidden: sweeping the
// injection time with rsk-nop(store, k) yields a single descending tooth
// that reaches exactly zero once the production interval exceeds the
// contended drain interval — after which the buffer hides all bus
// contention and no saw-tooth period exists for the methodology to read.
// This is why the methodology derives ubd with loads (§5.3).
//
// Run with:
//
//	go run ./examples/storebuffer
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"rrbus"
)

func main() {
	cfg := rrbus.ReferenceNGMP()
	ctx := context.Background()
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}

	fmt.Printf("store sweep on %s (ubd=%d, lbus=%d, store buffer %d entries)\n\n",
		cfg.Name, cfg.UBD(), cfg.BusLatency(), cfg.StoreBufferDepth)
	fmt.Println("  k  slowdown   per-store")

	// The Fig. 7(b) plan: rsk-nop(store, k) against three rsk(store) for
	// k = 1..45, each run paired with its isolation run.
	plan, err := rrbus.GeneratorPlan("fig7b", rrbus.Params{"kmax": 45})
	if err != nil {
		log.Fatal(err)
	}
	results, err := sess.RunAllContext(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	zeroFrom := -1
	var maxSlow int64 = 1
	type pt struct {
		k        int
		slow     int64
		perStore float64
	}
	var pts []pt
	for i, r := range results {
		k, d := i+1, r.Slowdown
		pts = append(pts, pt{k, d, float64(d) / float64(r.Requests)})
		if d > maxSlow {
			maxSlow = d
		}
		if d == 0 && zeroFrom < 0 {
			zeroFrom = k
		} else if d != 0 {
			zeroFrom = -1
		}
	}
	for _, p := range pts {
		bar := strings.Repeat("#", int(p.slow*30/maxSlow))
		fmt.Printf("%3d  %8d  %9.2f  %s\n", p.k, p.slow, p.perStore, bar)
	}
	fmt.Printf("\nslowdown is identically zero from k=%d: the store buffer hides all contention\n", zeroFrom)
	fmt.Printf("(paper: one saw-tooth period then zero; tooth length tracks ubd=%d — see EXPERIMENTS.md E7)\n", cfg.UBD())

	// Contrast: the load-based derivation still works, and is the reason
	// the methodology uses loads.
	res, err := rrbus.DeriveUBD(ctx, sess, rrbus.PlatformSpec{Arch: "ref"}, rrbus.DeriveOptions{Type: rrbus.OpLoad})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nload-based derivation on the same platform: ubdm = %d (actual %d)\n", res.UBDm, cfg.UBD())
}
