// Virtualization: the paper's Fig 7/Fig 10 setting. A guest process's TLB
// miss triggers a 2D nested walk (up to 24 memory accesses); ASAP can
// prefetch in the guest dimension, the host dimension, or both, with the
// guest page-table regions pinned machine-contiguously by the hypervisor.
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
	spec, ok := workload.ByName("pagerank")
	if !ok {
		log.Fatal("workload pagerank not defined")
	}
	params := sim.DefaultParams()
	if *fast {
		params.WarmupWalks, params.MeasureWalks = 3000, 2000
	}

	native, err := sim.Run(context.Background(), sim.Scenario{Workload: spec}, params, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native baseline walk latency: %.1f cycles\n\n", native.AvgWalkLat)

	configs := []struct {
		name string
		asap sim.ASAPConfig
	}{
		{"virtualized baseline", sim.ASAPConfig{}},
		{"guest P1", sim.ASAPConfig{Guest: core.Config{P1: true}}},
		{"guest P1+P2", sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}}},
		{"guest P1 + host P1", sim.ASAPConfig{Guest: core.Config{P1: true}, Host: core.Config{P1: true}}},
		{"both dims P1+P2", sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}},
	}
	var base float64
	for _, c := range configs {
		res, err := sim.Run(context.Background(), sim.Scenario{Workload: spec, Virtualized: true, ASAP: c.asap}, params, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.AvgWalkLat
		}
		fmt.Printf("%-22s %7.1f cycles  (%.0f%% below virt baseline, %.1f× native)\n",
			c.name, res.AvgWalkLat, 100*(1-res.AvgWalkLat/base), res.AvgWalkLat/native.AvgWalkLat)
	}
}
