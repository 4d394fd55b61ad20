// Command bench is the repository benchmark. It times whole simulator grids
// end to end through the public runner, under a closed loop of two clients,
// checks every simulated result against an untimed calibration pass, and in
// its traced variant probes each layer's hot calls and writes the run's spans
// as Chrome trace_event JSON.
//
//	bash bench/run.sh --workload colo --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh --workload colo --seed 42 --seconds 20 --trace 1
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
//
// The last line of a run's standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end untraced, per-layer traced).
// README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/sim"
)

func main() {
	if arg := os.Getenv(setupChildEnv); arg != "" {
		if err := setupChild(arg, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: set-up child:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir is where the benchmark keeps what it builds and writes: the
// CARGO_TARGET_DIR the driver names, else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: colo, isolated, multiproc or schemes")
	seed := fs.Uint64("seed", 42, "seed of the simulated inputs")
	secs := fs.Float64("seconds", 20, "time budget of the timed iterations")
	traced := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a span file")
	spans := fs.String("spans", "", "span file of a traced run (default <build dir>/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	o := options{
		workload: *name, seed: *seed, seconds: *secs, traced: *traced == 1,
		protocol: sim.DefaultParams(), setupRuns: 9, probeCalls: 200_000,
		newSimulator: newRunner, stderr: stderr,
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.traced {
		path := *spans
		if path == "" {
			path = filepath.Join(buildDir(), fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "bench: spans written to", path)
	}
	if err := printReport(stdout, o, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// jsonMetric and jsonResult are the run's final output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints every metric by name with its unit, one per line, and
// then the result object as the last line.
func printReport(w io.Writer, o options, rep *report) error {
	mode := 0
	if o.traced {
		mode = 1
	}
	fmt.Fprintf(w, "bench: workload=%s seed=%d trace=%d clients=%d iterations=%d attempted=%d failed=%d\n",
		rep.workload, o.seed, mode, clients, rep.iterations, rep.attempted, rep.failed)
	for _, m := range rep.e2e {
		printMetric(w, m)
	}
	reported := rep.e2e
	if o.traced {
		for _, m := range rep.layer {
			printMetric(w, m)
		}
		reported = rep.layer
		self := selfTimes(rep.spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "span %-32s self %v\n", n, self[n].Round(time.Microsecond))
		}
	} else {
		for _, m := range append(rep.host, rep.model...) {
			printMetric(w, m)
		}
	}
	res := jsonResult{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range reported {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetric(w io.Writer, m metric) {
	fmt.Fprintf(w, "%-36s %-22v %-8s", m.name, m.value, m.unit)
	switch {
	case m.quartiles:
		fmt.Fprintf(w, " median q1=%.6g q3=%.6g n=%d", m.q1, m.q3, m.n)
	case m.n > 0:
		fmt.Fprintf(w, " n=%d", m.n)
	}
	fmt.Fprintln(w)
}
