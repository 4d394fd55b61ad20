// Schemes: run one workload's TLB-miss stream under every registered
// translation backend — the paper's ASAP pipeline, Victima-style TLB
// transplants into the L2 data cache, and Revelator-style hash-based
// speculative translation — on identical reference streams and hardware.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	fast := flag.Bool("fast", false, "reduced measurement protocol (CI smoke)")
	flag.Parse()
	spec, ok := workload.ByName("mc80")
	if !ok {
		log.Fatal("workload mc80 not defined")
	}
	params := sim.DefaultParams()
	if *fast {
		params.WarmupWalks, params.MeasureWalks = 3000, 2000
	}

	cells := []struct {
		label string
		sc    sim.Scenario
	}{
		{"walk only", sim.Scenario{Workload: spec, Scheme: "asap"}},
		{"asap P1+P2", sim.Scenario{Workload: spec, Scheme: "asap", ASAP: sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}}},
		{"victima", sim.Scenario{Workload: spec, Scheme: "victima"}},
		{"revelator", sim.Scenario{Workload: spec, Scheme: "revelator"}},
	}

	fmt.Printf("workload: %s — %s\n\n", spec.Name, spec.Description)
	fmt.Printf("%-12s %16s %13s %11s\n", "scheme", "avg walk (cyc)", "vs walk", "accel hits")

	var baseline float64
	for i, c := range cells {
		res, err := sim.Run(context.Background(), c.sc, params, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseline = res.AvgWalkLat
		}
		fmt.Printf("%-12s %16.1f %12.1f%% %10.1f%%\n",
			c.label, res.AvgWalkLat, 100*(1-res.AvgWalkLat/baseline), 100*res.RangeHitRate)
	}
	fmt.Println("\nEach scheme resolves L2-TLB misses its own way: ASAP prefetches deep")
	fmt.Println("page-table entries via range registers, Victima probes transplanted")
	fmt.Println("translations in the L2 data cache, Revelator fetches OS hash-table")
	fmt.Println("buckets and verifies speculative translations off the critical path.")
}
