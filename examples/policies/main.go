// Policies: probe the methodology's central assumption — that the bus is
// round-robin arbitrated (§4.3 "Inputs").
//
// The Eq. 3 mapping from saw-tooth period to ubd is specific to RR. This
// example reruns the derivation under TDMA, fixed-priority and lottery
// arbitration: TDMA produces a period equal to the frame (overestimating),
// fixed priority and lottery produce no usable period at all, and the
// confidence machinery reports why.
//
// Run with:
//
//	go run ./examples/policies
package main

import (
	"context"
	"fmt"
	"log"

	"rrbus"
)

func main() {
	base := rrbus.ReferenceNGMP()
	fmt.Printf("platform: %d cores, lbus=%d, Eq.1 ubd=%d\n\n", base.Cores, base.BusLatency(), base.UBD())
	ctx := context.Background()
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}

	for _, arb := range []struct {
		kind rrbus.ArbiterKind
		note string
	}{
		{rrbus.ArbiterRR, "the assumed policy: period = ubd"},
		{rrbus.ArbiterTDMA, "slots are granted by wall clock: period tracks the frame Nc×slot"},
		{rrbus.ArbiterFP, "no rotating priority window: Eq. 2 does not apply"},
		{rrbus.ArbiterLottery, "random grants: no stable period"},
	} {
		platform := rrbus.PlatformSpec{Arch: "ref", Arbiter: string(arb.kind)}
		res, err := rrbus.DeriveUBD(ctx, sess, platform, rrbus.DeriveOptions{KLimit: 160})
		switch {
		case err != nil && res == nil:
			log.Fatal(err)
		case err != nil:
			fmt.Printf("%-12s derivation refused: %v\n", arb.kind, err)
		default:
			fmt.Printf("%-12s derived %d cycles (periodK %d, confidence %.2f)",
				arb.kind, res.UBDm, res.PeriodK, res.Confidence.Score())
			if res.UBDm != base.UBD() {
				fmt.Printf("  ** differs from Eq.1 ubd %d **", base.UBD())
			}
			fmt.Println()
			for _, n := range res.Confidence.Notes {
				fmt.Printf("%12s   note: %s\n", "", n)
			}
		}
		fmt.Printf("%12s   (%s)\n\n", "", arb.note)
	}

	fmt.Println("conclusion: verify the arbitration policy from the manual before trusting ubdm —")
	fmt.Println("the methodology's period detection is sound only for round-robin buses.")
}
