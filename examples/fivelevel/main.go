// Five-level paging: the §2.6/§3.5 forward-looking scenario. Terabyte-scale
// memories force a fifth radix level, deepening every walk; ASAP extends
// naturally with one more prefetch target (P3), recovering the loss without
// touching the page-table structure.
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
	spec, ok := workload.ByName("mc400")
	if !ok {
		log.Fatal("workload mc400 not defined")
	}

	four := sim.DefaultParams()
	if *fast {
		four.WarmupWalks, four.MeasureWalks = 3000, 2000
	}
	five := four
	five.FiveLevel = true

	rows := []struct {
		name string
		p    sim.Params
		asap sim.ASAPConfig
	}{
		{"4-level baseline", four, sim.ASAPConfig{}},
		{"4-level ASAP P1+P2", four, sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}},
		{"5-level baseline", five, sim.ASAPConfig{}},
		{"5-level ASAP P1+P2", five, sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}},
		{"5-level ASAP P1+P2+P3", five, sim.ASAPConfig{Native: core.Config{P1: true, P2: true, P3: true}}},
	}
	for _, r := range rows {
		res, err := sim.Run(context.Background(), sim.Scenario{Workload: spec, ASAP: r.asap}, r.p, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %8.1f cycles\n", r.name, res.AvgWalkLat)
	}
	fmt.Println("\nWith five levels the OS reserves one more sorted region per VMA and the")
	fmt.Println("range registers gain a PL3 base — no other change to the ASAP design.")
}
