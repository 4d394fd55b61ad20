// Command asapsim runs a single address-translation scenario and prints its
// metrics. It is the low-level entry point; cmd/paperrepro regenerates the
// paper's tables and figures wholesale.
//
// Example:
//
//	asapsim -workload mc80 -asap p1+p2 -colocate
//	asapsim -workload redis -virt -guest p1+p2 -host p1+p2
//	asapsim -workload mcf -procs 4 -mix mcf,canneal -flushswitch
//	asapsim -workload mc80 -scheme victima
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var cs sim.CellSpec
	flag.StringVar(&cs.Workload, "workload", "mc80", "workload name ("+strings.Join(workload.Names(), ", ")+")")
	flag.StringVar(&cs.Scheme, "scheme", "asap", "translation scheme ("+strings.Join(mmu.Names(), ", ")+")")
	flag.StringVar(&cs.ASAP, "asap", "off", "native ASAP config: off, p1, p1+p2, p1+p2+p3 (-scheme asap only)")
	flag.StringVar(&cs.Guest, "guest", "off", "guest ASAP config (with -virt)")
	flag.StringVar(&cs.Host, "host", "off", "host ASAP config (with -virt)")
	flag.BoolVar(&cs.Virtualized, "virt", false, "run under virtualization (2D nested walks)")
	flag.BoolVar(&cs.Colocated, "colocate", false, "add the synthetic SMT co-runner")
	flag.BoolVar(&cs.HostHugePages, "hugehost", false, "hypervisor backs guest RAM with 2MB pages")
	flag.BoolVar(&cs.ClusteredTLB, "ctlb", false, "replace the STLB with a Clustered TLB")
	flag.StringVar(&cs.Mix, "mix", "", "comma-separated co-scheduled workloads (with -procs; empty = replicate -workload)")
	var ps sim.ParamSpec
	flag.BoolVar(&ps.FiveLevel, "5level", false, "use 5-level page tables (native)")
	flag.Float64Var(&ps.HoleProb, "holes", 0, "probability of a hole per ASAP-region PT node")
	flag.IntVar(&ps.MeasureWalks, "measure", 0, "measured page walks (0 = default)")
	flag.IntVar(&ps.WarmupWalks, "warmup", 0, "warmup page walks (0 = default)")
	flag.Uint64Var(&ps.Seed, "seed", 0, "random seed (0 = default)")
	flag.IntVar(&ps.Processes, "procs", 1, "co-scheduled processes time-sharing the core (native only)")
	flag.IntVar(&ps.QuantumRefs, "quantum", 0, "mean scheduler quantum in references (0 = default)")
	flag.BoolVar(&ps.FlushOnSwitch, "flushswitch", false, "flush TLBs/PWCs on context switch instead of ASID-tagged retention")
	breakdown := flag.Bool("breakdown", false, "print the Fig 9 per-level breakdown")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this duration (0 = none)")
	flag.Parse()

	sc, p, err := sim.Parse(cs, ps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := sim.Run(ctx, sc, p, nil, nil)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "sim: timed out after %s (scenario %s)\n", *timeout, sc.Name())
		} else {
			fmt.Fprintln(os.Stderr, err) // sim's errors carry their "sim:" prefix
		}
		os.Exit(1)
	}

	fmt.Printf("scenario            %s\n", sc.Name())
	fmt.Printf("references          %d measured\n", res.Accesses)
	fmt.Printf("page walks          %d (TLB miss ratio %.1f%%)\n", res.Walks, 100*res.TLBMissRatio)
	fmt.Printf("avg walk latency    %.1f cycles\n", res.AvgWalkLat)
	fmt.Printf("walk cycle share    %.1f%% of execution (model)\n", 100*res.WalkFraction)
	fmt.Printf("TLB MPKI            %.2f\n", res.MPKI)
	if p.Processes > 1 {
		policy := "ASID-tagged retention"
		if p.FlushOnSwitch {
			policy = "flush on switch"
		}
		fmt.Printf("context switches    %d (%s, %d TLB flushes)\n", res.Switches, policy, res.ShootdownFlushes)
	}
	if sc.ASAP.Enabled() {
		fmt.Printf("prefetches          %d issued, %d accesses covered\n", res.PrefetchIssued, res.PrefetchCovered)
		fmt.Printf("range-register hits %.1f%%\n", 100*res.RangeHitRate)
		if sc.Virtualized && sc.ASAP.Host.Enabled() {
			fmt.Printf("host range hits     %.1f%%\n", 100*res.HostRangeHitRate)
		}
		if res.RangeOverflowed > 0 {
			fmt.Printf("descriptors dropped %d (range-register file full)\n", res.RangeOverflowed)
		}
	}
	if sc.Scheme != "" {
		fmt.Printf("accel hit rate      %.1f%% (%s mechanism)\n", 100*res.RangeHitRate, sc.SchemeName())
	}
	if *breakdown {
		fmt.Println()
		fmt.Print(breakdownTable(res))
	}
}

func breakdownTable(res *sim.Result) string {
	tb := stats.NewTable("PT level", "PWC", "L1", "L2", "LLC", "Mem")
	for level := 4; level >= 1; level-- {
		row := []string{fmt.Sprintf("PL%d", level)}
		for _, s := range []cache.ServedBy{cache.ServedPWC, cache.ServedL1, cache.ServedL2, cache.ServedL3, cache.ServedMem} {
			row = append(row, stats.Pct(res.Breakdown.Fraction(level, s)))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}
