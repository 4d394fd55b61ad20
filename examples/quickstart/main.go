// Quickstart: build a synthetic big-memory process, run its TLB-miss stream
// through the simulated translation hardware, and compare the baseline page
// walker against ASAP prefetching (the paper's P1 and P1+P2 configurations).
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

	fmt.Printf("workload: %s — %s\n\n", spec.Name, spec.Description)
	fmt.Printf("%-10s %16s %14s\n", "config", "avg walk (cyc)", "vs baseline")

	var baseline float64
	for _, cfg := range []core.Config{{}, {P1: true}, {P1: true, P2: true}} {
		res, err := sim.Run(context.Background(), sim.Scenario{Workload: spec, ASAP: sim.ASAPConfig{Native: cfg}}, params, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		if !cfg.Enabled() {
			baseline = res.AvgWalkLat
		}
		fmt.Printf("%-10s %16.1f %13.1f%%\n", cfg, res.AvgWalkLat, 100*(1-res.AvgWalkLat/baseline))
	}
	fmt.Println("\nASAP prefetches the PL1/PL2 page-table entries on every TLB miss,")
	fmt.Println("overlapping the deep radix-tree accesses with the walk's upper levels.")
}
