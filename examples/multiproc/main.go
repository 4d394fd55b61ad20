// Multi-process scheduling: the §3.3 setting the paper argues about but
// never simulates. Several processes time-share one core; every context
// switch restores the incoming process's ASAP descriptor file (the per-VMA
// register state the OS saves and restores) and either flushes the
// translation hardware (untagged TLBs/PWCs) or retains it under per-process
// ASID tags. Flush-on-switch forces the TLB to rewarm every quantum, so the
// program suffers more page walks per unit of work; tagged retention keeps
// the survivors alive across switches. The comparison metric is the walk
// stall rate — page-walk cycles per kilo-instruction — because the refill
// walks the flush policy adds are recently-walked, cache-warm pages: cheap
// individually, expensive in aggregate.
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
	spec, ok := workload.ByName("mcf")
	if !ok {
		log.Fatal("workload mcf not defined")
	}
	base := sim.DefaultParams()
	if *fast {
		base.WarmupWalks, base.MeasureWalks = 3000, 2000
	}
	asap := sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}

	fmt.Printf("%-6s %-8s %-8s %18s %18s %10s %10s\n",
		"procs", "policy", "ASAP", "walk stall cyc/kI", "avg walk lat", "switches", "flushes")
	for _, n := range []int{1, 2, 4, 8} {
		policies := []bool{false}
		if n > 1 {
			policies = []bool{true, false}
		}
		for _, flush := range policies {
			for _, cfg := range []sim.ASAPConfig{{}, asap} {
				p := base
				p.Processes = n
				p.FlushOnSwitch = flush
				sc := sim.Scenario{Workload: spec, ASAP: cfg}
				if n > 1 {
					sc.Mix = "mcf,canneal"
				}
				res, err := sim.Run(context.Background(), sc, p, nil, nil)
				if err != nil {
					log.Fatal(err)
				}
				policy := "—"
				if n > 1 {
					if flush {
						policy = "flush"
					} else {
						policy = "ASID"
					}
				}
				fmt.Printf("%-6d %-8s %-8s %18.1f %18.1f %10d %10d\n",
					n, policy, cfg, res.MPKI*res.AvgWalkLat, res.AvgWalkLat,
					res.Switches, res.ShootdownFlushes)
			}
		}
	}
	fmt.Println("\nASID tags pack into the high TLB-tag bits ((asid << vpnBits) | vpn), so")
	fmt.Println("one structure holds every process's translations; a flush-on-switch OS")
	fmt.Println("pays the rewarm walks instead. ASAP's descriptor swap rides the regular")
	fmt.Println("context-switch state save (§3.3) and its capacity drops recur per switch.")
}
