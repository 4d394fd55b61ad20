// Colocation: the paper's SMT co-runner study (§4, Fig 8b). A synthetic
// memory-intensive thread shares the cache hierarchy with the application,
// evicting cached page-table entries; walks lengthen, and ASAP's opportunity
// to overlap long accesses grows.
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
	params := sim.DefaultParams()
	if *fast {
		params.WarmupWalks, params.MeasureWalks = 3000, 2000
	}
	asap := sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}

	fmt.Printf("%-10s %12s %12s %12s %12s %14s\n",
		"workload", "iso base", "iso ASAP", "colo base", "colo ASAP", "colo ASAP red.")
	for _, name := range []string{"mcf", "mc80", "redis"} {
		spec, ok := workload.ByName(name)
		if !ok {
			log.Fatalf("workload %s not defined", name)
		}
		cells := []sim.Scenario{
			{Workload: spec},
			{Workload: spec, ASAP: asap},
			{Workload: spec, Colocated: true},
			{Workload: spec, Colocated: true, ASAP: asap},
		}
		var lat [4]float64
		for i, sc := range cells {
			res, err := sim.Run(context.Background(), sc, params, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			lat[i] = res.AvgWalkLat
		}
		fmt.Printf("%-10s %12.1f %12.1f %12.1f %12.1f %13.0f%%\n",
			name, lat[0], lat[1], lat[2], lat[3], 100*(1-lat[3]/lat[2]))
	}
	fmt.Println("\nColocation pressures the caches that hold page-table entries, so the")
	fmt.Println("serial walk exposes more long accesses — exactly what ASAP overlaps.")
}
