package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// setupChildEnv marks a process as a cold set-up child. Its value is
// "workload,seed"; the schemes capture arrives on standard input.
const setupChildEnv = "BENCH_SETUP_CHILD"

// runSetupChild re-executes this binary as a fresh process that sets up the
// workload cold and reports how long that took, in seconds.
func runSetupChild(ctx context.Context, workload string, seed uint64, capture []byte) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s,%d", setupChildEnv, workload, seed))
	cmd.Stdin = bytes.NewReader(capture)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return time.Duration(s * float64(time.Second)), nil
}

// setupChild is the child side of runSetupChild. It measures what a user's
// first grid pays before any cell simulates for long: an empty build cache,
// loading the capture (schemes only), and every cell run once through a
// runner with the benchmark's clients at one warm-up and one measured walk,
// which builds every page-table assembly the grid needs.
func setupChild(arg string, stdin io.Reader, stdout io.Writer) error {
	name, seedText, _ := strings.Cut(arg, ",")
	seed, err := strconv.ParseUint(seedText, 10, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: %w", setupChildEnv, arg, err)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	p := sim.DefaultParams()
	p.Seed = seed
	p.WarmupWalks, p.MeasureWalks = 1, 1

	start := time.Now()
	sim.ResetBuildCache()
	var capture *trace.Trace
	if len(raw) > 0 {
		if capture, err = loadCapture(raw); err != nil {
			return err
		}
	}
	cells, err := w.cells(p, capture)
	if err != nil {
		return err
	}
	simulate, release := newRunner()
	_, errs, _ := runGrid(context.Background(), cells, nil, 0, func(ctx context.Context, i int) (*sim.Result, error) {
		return simulate(ctx, cells[i].sc, cells[i].p)
	})
	release()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].sc.Name(), err)
		}
	}
	_, err = fmt.Fprintf(stdout, "%.9f\n", elapsed.Seconds())
	return err
}
