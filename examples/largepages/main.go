// Large pages: the paper's Fig 12 setting. The hypervisor backs guest RAM
// with 2 MB pages, shortening every 1D host walk by one level; ASAP
// (P1+P2 in the guest, P2-only in the host, since the host table has no PL1)
// still delivers a sizeable reduction on top.
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
	asap := sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P2: true}}

	cells := []struct {
		name string
		sc   sim.Scenario
	}{
		{"virt, 4KB host pages, baseline", sim.Scenario{Workload: spec, Virtualized: true}},
		{"virt, 2MB host pages, baseline", sim.Scenario{Workload: spec, Virtualized: true, HostHugePages: true}},
		{"virt, 2MB host pages, ASAP", sim.Scenario{Workload: spec, Virtualized: true, HostHugePages: true, ASAP: asap}},
		{"…same under SMT colocation", sim.Scenario{Workload: spec, Virtualized: true, HostHugePages: true, Colocated: true, ASAP: asap}},
		{"…colocated baseline", sim.Scenario{Workload: spec, Virtualized: true, HostHugePages: true, Colocated: true}},
	}
	for _, c := range cells {
		res, err := sim.Run(context.Background(), c.sc, params, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %8.1f cycles\n", c.name, res.AvgWalkLat)
	}
	fmt.Println("\n2MB host pages remove one access from each nested 1D walk (accesses")
	fmt.Println("4, 9, 14, 19, 24 of the paper's Fig 7); ASAP overlaps most of the rest.")
}
