// Automotive: the paper's §4.3 "Using ubdm" end to end, on the
// EEMBC-Autobench-like workloads the paper evaluates with.
//
// One Session (1) derives ubdm for the platform with the rsk-nop
// methodology and (2) runs the etb plan for a table-lookup task
// (tblook): the task alone gives its isolation time and bus-request count
// nr, the bound is padded as ETB = et_isol + nr×ubdm, and the task's
// observed execution times against three bus-hammering rsk and six
// random 4-task workloads check it.
//
// Run with:
//
//	go run ./examples/automotive
//
// The same plan runs from a file, store-served and shardable like every
// other figure:
//
//	echo '{"generator":"etb","params":{"task":"tblook","seed":7,"count":6}}' > etb.json
//	rrbus-figures -scenario etb.json -store results/
package main

import (
	"context"
	"fmt"
	"log"

	"rrbus"
)

func main() {
	ctx := context.Background()
	sess := &rrbus.Session{Store: rrbus.NewMemStore()}
	res, err := rrbus.DeriveUBD(ctx, sess, rrbus.PlatformSpec{Arch: "ref"}, rrbus.DeriveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived ubdm = %d cycles (confidence %.2f)\n\n", res.UBDm, res.Confidence.Score())

	plan, err := rrbus.GeneratorPlan("etb", rrbus.Params{
		"arch": "ref", "task": "tblook", "seed": 7, "count": 6, "ubdm": res.UBDm,
	})
	if err != nil {
		log.Fatal(err)
	}
	results, err := sess.RunAllContext(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	text, err := rrbus.Render(plan, results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(text)
}
