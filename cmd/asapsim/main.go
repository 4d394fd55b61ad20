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
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "mc80", "workload name ("+strings.Join(workload.Names(), ", ")+")")
		scheme    = flag.String("scheme", "asap", "translation scheme ("+strings.Join(mmu.Names(), ", ")+")")
		asapFlag  = flag.String("asap", "off", "native ASAP config: off, p1, p1+p2, p1+p2+p3 (-scheme asap only)")
		guestFlag = flag.String("guest", "off", "guest ASAP config (with -virt)")
		hostFlag  = flag.String("host", "off", "host ASAP config (with -virt)")
		virtual   = flag.Bool("virt", false, "run under virtualization (2D nested walks)")
		colocate  = flag.Bool("colocate", false, "add the synthetic SMT co-runner")
		hugeHost  = flag.Bool("hugehost", false, "hypervisor backs guest RAM with 2MB pages")
		clustered = flag.Bool("ctlb", false, "replace the STLB with a Clustered TLB")
		fiveLevel = flag.Bool("5level", false, "use 5-level page tables (native)")
		holes     = flag.Float64("holes", 0, "probability of a hole per ASAP-region PT node")
		measure   = flag.Int("measure", 0, "measured page walks (0 = default)")
		warmup    = flag.Int("warmup", 0, "warmup page walks (0 = default)")
		seed      = flag.Uint64("seed", 0, "random seed (0 = default)")
		breakdown = flag.Bool("breakdown", false, "print the Fig 9 per-level breakdown")
		procs     = flag.Int("procs", 1, "co-scheduled processes time-sharing the core (native only)")
		mix       = flag.String("mix", "", "comma-separated co-scheduled workloads (with -procs; empty = replicate -workload)")
		quantum   = flag.Int("quantum", 0, "mean scheduler quantum in references (0 = default)")
		timeout   = flag.Duration("timeout", 0, "abort the simulation after this duration (0 = none)")
		flushSw   = flag.Bool("flushswitch", false, "flush TLBs/PWCs on context switch instead of ASID-tagged retention")
		progress  = flag.Bool("progress", false, "report live cell progress on stderr")
	)
	flag.Parse()

	spec, ok := workload.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *name, strings.Join(workload.Names(), ", "))
		os.Exit(2)
	}
	if err := mmu.Validate(*scheme); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The native ASAP config parses in scheme context: prefetch levels are the
	// asap scheme's mechanism, so -scheme victima -asap p1+p2 is rejected, not
	// silently ignored. Every other contradictory combination is rejected by
	// sim.Validate below.
	native, err := mmu.ParseASAP(*scheme, *asapFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	guest, host := parseASAP(*guestFlag), parseASAP(*hostFlag)
	// A lone process ignores QuantumRefs (which always carries a default) and
	// FlushOnSwitch, so sim.Validate accepts both; only the command line can
	// tell that the user asked for them.
	if *procs <= 1 && (*flushSw || *quantum > 0) {
		fmt.Fprintln(os.Stderr, "-flushswitch and -quantum require -procs > 1")
		os.Exit(2)
	}
	p := sim.DefaultParams()
	p.FiveLevel = *fiveLevel
	p.HoleProb = *holes
	if *measure > 0 {
		p.MeasureWalks = *measure
	}
	if *warmup > 0 {
		p.WarmupWalks = *warmup
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	p.Processes = *procs
	p.FlushOnSwitch = *flushSw
	if *quantum > 0 {
		p.QuantumRefs = *quantum
	}
	sc := sim.Scenario{
		Workload:      spec,
		Virtualized:   *virtual,
		Colocated:     *colocate,
		HostHugePages: *hugeHost,
		ClusteredTLB:  *clustered,
		Mix:           *mix,
		ASAP: sim.ASAPConfig{
			Native: native,
			Guest:  guest,
			Host:   host,
		},
	}
	if mmu.Canonical(*scheme) != "asap" {
		// The default asap selection keeps the zero Scenario value, so names
		// and memo keys match the pre-scheme harness exactly.
		sc.Scheme = mmu.Canonical(*scheme)
	}
	if err := sim.Validate(sc, p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// A single cell gains nothing from parallelism, but routing through the
	// runner keeps asapsim on the same executor as cmd/paperrepro and the
	// benchmarks.
	r := runner.New(1)
	defer r.Close()
	if *progress {
		defer startProgress(r)()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := r.RunCtx(ctx, sc, p)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "sim: timed out after %s (scenario %s)\n", *timeout, sc.Name())
		} else {
			fmt.Fprintln(os.Stderr, "sim:", err)
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

// startProgress polls the runner's progress counters (cmd/paperrepro has the
// same poller over its multi-cell grids; here it mostly reports the single
// cell's in-flight state while a long simulation runs). The returned func
// stops the poller.
func startProgress(r *runner.Runner) func() {
	meter := obs.NewProgressMeter(0, 0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		var last runner.Progress
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			p := r.Progress()
			if p == last {
				continue
			}
			last = p
			meter.SetTotal(int64(p.Submitted))
			meter.Observe(time.Now().UnixNano(), int64(p.Done))
			fmt.Fprintf(os.Stderr, "progress: %s · %d in flight\n",
				obs.FormatProgress("cells", meter.Snapshot()), p.InFlight)
		}
	}()
	return func() { close(stop); <-done }
}

func parseASAP(s string) core.Config {
	c, err := core.ParseConfig(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return c
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
