// Command paperrepro regenerates the tables and figures of "Prefetched
// Address Translation" (Margaritov et al., MICRO-52 2019) from the simulator
// in this repository.
//
// Usage:
//
//	paperrepro -exp all                       # everything (27–43 s at -j 2)
//	paperrepro -exp fig8                      # one experiment
//	paperrepro -exp fig10 -fast               # reduced measurement protocol
//	paperrepro -exp all -j 8                  # fan scenario cells over 8 workers
//	paperrepro -exp all -repeats 3 -out DIR   # 3 repeats/cell + artifact files
//	paperrepro -list                          # list experiment names
//
// Scenario cells always run through a memoizing runner, so cells shared
// between experiments (Fig 2 and Fig 3 iterate the same grid; Table 1 and
// Fig 8/10/12 overlap further) are simulated exactly once. -j controls how
// many cells simulate concurrently; table output is identical for every -j
// because results are collected in submission order. A cache-utilization
// summary goes to stderr, keeping stdout byte-for-byte comparable.
//
// -repeats N simulates every cell N times under per-repeat derived seeds and
// renders walk-latency cells as "mean ± σ"; -repeats 1 (the default) keeps
// stdout byte-identical to the single-run harness. -out DIR writes
// machine-readable per-cell records — one file per experiment under
// DIR/<format>/ plus a grouped mean/std/CI95 summary under DIR/analysis/ —
// in the format selected by -format (csv or json).
//
// -progress prints live cell progress to stderr (done/submitted, a decaying
// cells-per-second rate and an ETA) whenever the counts move.
//
// -timeout D bounds the whole run: on expiry in-flight simulations abort at
// the simulator's next context check, the exit code is 1, and stderr lists
// every cell that completed before the deadline (memoized results that -out
// artifacts already captured).
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the whole run
// (CPU samples while experiments execute; the live heap at exit), so perf
// changes can be justified with `go tool pprof` evidence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workload"
)

func main() {
	// All work happens in run so that deferred shutdown (runner workers) and
	// the stderr reporting below execute on every path; os.Exit here would
	// skip them.
	os.Exit(run())
}

func run() (exit int) {
	var (
		name    = flag.String("exp", "all", "experiment to run (see -list)")
		fast    = flag.Bool("fast", false, "reduced measurement protocol (quicker, noisier)")
		list    = flag.Bool("list", false, "list experiment names and exit")
		only    = flag.String("workload", "", "restrict to one workload (where applicable)")
		jobs    = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent scenario simulations (1 = sequential)")
		repeats = flag.Int("repeats", 1, "independent repeats per scenario cell (seeds derived per repeat)")
		out     = flag.String("out", "", "directory for machine-readable per-cell artifacts (empty = none)")
		format  = flag.String("format", "csv", "artifact format: csv or json")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = none); completed cells are listed on timeout")
		tracef  = flag.String("trace", "", "reference-trace file for the trace-asap and compare-schemes experiments (record with asaptrace)")
		scheme  = flag.String("scheme", "", "translation scheme for every cell ("+strings.Join(mmu.Names(), ", ")+"; empty = per-experiment default)")
		progrss = flag.Bool("progress", false, "report live cell progress (count, rate, ETA) on stderr")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Println(e.Name)
		}
		return 0
	}
	if *repeats < 1 {
		fmt.Fprintln(os.Stderr, "paperrepro: -repeats must be >= 1")
		return 2
	}
	if *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "paperrepro: unknown -format %q (want csv or json)\n", *format)
		return 2
	}
	o := exp.Default(os.Stdout)
	if *fast {
		o = exp.Fast(os.Stdout)
	}
	if *only != "" {
		spec, ok := workload.ByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *only)
			return 2
		}
		o.Workloads = []workload.Spec{spec}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// The deferred write adjusts the named return, so a run that produced
		// no heap profile does not exit 0.
		defer func() {
			err := func() error {
				f, err := os.Create(*memProf)
				if err != nil {
					return err
				}
				defer f.Close()
				runtime.GC() // flush dead objects so the profile shows live heap
				return pprof.WriteHeapProfile(f)
			}()
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro:", err)
				if exit == 0 {
					exit = 1
				}
			}
		}()
	}
	if *scheme != "" {
		if err := mmu.Validate(*scheme); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 2
		}
		o.Scheme = mmu.Canonical(*scheme)
	}
	o.Repeats = *repeats
	o.Trace = *tracef
	var col *report.Collector
	if *out != "" {
		col = report.NewCollector()
		o.Sink = col
	}
	r := runner.New(*jobs)
	defer r.Close()
	o.Runner = r
	if *progrss {
		defer startProgress(r)()
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		o.Ctx = ctx
	}

	code := 0
	if err := exp.Run(*name, o); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		if errors.Is(err, context.DeadlineExceeded) {
			// A timed-out run is still worth something: say exactly which
			// cells finished (their results are memoized and, with -out, in
			// the artifact records collected so far).
			done := r.Completed()
			fmt.Fprintf(os.Stderr, "paperrepro: timed out after %s with %d cells completed:\n", *timeout, len(done))
			for _, name := range done {
				fmt.Fprintf(os.Stderr, "  %s\n", name)
			}
		}
		code = 1
	}
	// Reporting happens on every path: the cache summary always, and the
	// artifact tree for whatever completed before a failure.
	if hits, misses := r.Stats(); hits+misses > 0 {
		total := hits + misses
		fmt.Fprintf(os.Stderr, "runner: %d unique cells simulated, %d cache hits (%.1f%% of %d requests)\n",
			misses, hits, 100*float64(hits)/float64(total), total)
	}
	if col != nil {
		records := col.Records()
		if err := report.WriteArtifacts(*out, *format, records); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "report: wrote %d records (%s) to %s\n", len(records), *format, *out)
	}
	return code
}

// startProgress polls the runner's progress counters and prints a stderr line
// whenever they move (rate and ETA from a decaying average over unique cells,
// with the submitted count as the moving total — experiments submit their
// grids as they start, so the total grows until the last grid is in). The
// returned func stops the poller; call it before the runner closes.
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
