// Package exp regenerates every table and figure of the paper's evaluation.
// Each experiment runs the relevant scenario grid through internal/sim and
// renders the same rows/series the paper reports; cmd/paperrepro is the CLI
// front end and the repository's benchmarks reuse the same entry points.
package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	Params    sim.Params
	Workloads []workload.Spec
	Out       io.Writer
	// Runner, when non-nil, executes scenario cells on a shared memoizing
	// worker pool: each experiment submits its full grid up front so
	// independent cells simulate concurrently (and cells shared between
	// experiments simulate only once), while results are collected in
	// submission order so rendered output matches a sequential run byte for
	// byte. When nil, cells run sequentially in place.
	Runner *runner.Runner
	// Repeats is the number of independent repeats per scenario cell; 0 and 1
	// both run each cell exactly once with Params.Seed, keeping rendered
	// output byte-identical to the single-run harness. With N > 1 every cell
	// simulates N times under per-repeat derived seeds
	// (sim.Params.ForRepeat), tables render the mean with a "± σ" run-to-run
	// deviation on walk-latency cells, and each repeat emits its own record.
	Repeats int
	// Sink, when non-nil, receives one machine-readable report.Record per
	// (cell, repeat) alongside the rendered text table.
	Sink report.Sink
	// Exp names the experiment currently attributing records; Run sets it
	// from the experiment registry before dispatching.
	Exp string
	// Trace is the reference-trace file driving the trace-replay experiment
	// (empty skips it with a note).
	Trace string
	// Scheme, when non-empty, selects the translation backend (internal/mmu)
	// for every cell that does not pin one itself. Rival schemes are
	// native-only, so experiments with virtualized cells fail loudly under
	// them rather than silently dropping the selection.
	Scheme string
	// Ctx, when non-nil, bounds every simulation of the run: on expiry or
	// cancellation in-flight cells abort at the simulator's next context
	// check and the experiment returns the context's error. Completed cells
	// remain memoized in Runner (Runner.Completed lists them).
	Ctx context.Context
}

// ctx returns the run's context (Background when none was set).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Default returns full-fidelity options writing to out.
func Default(out io.Writer) Options {
	return Options{Params: sim.DefaultParams(), Workloads: workload.Specs(), Out: out}
}

// Fast returns reduced-protocol options for smoke runs and benchmarks.
func Fast(out io.Writer) Options {
	o := Default(out)
	o.Params.WarmupWalks = 10_000
	o.Params.MeasureWalks = 8_000
	return o
}

// repeats returns the effective repeat count (at least 1).
func (o Options) repeats() int {
	if o.Repeats > 1 {
		return o.Repeats
	}
	return 1
}

// cellResult is what experiments consume per scenario cell: the mean result
// over the cell's repeats (the lone result for a single repeat — sim.Result's
// fields are promoted, so table code reads metrics exactly as before) plus
// the per-metric sample standard deviation when more than one repeat ran.
type cellResult struct {
	*sim.Result
	sigma *sim.Result // nil for a single repeat
}

// withScheme applies the run-wide scheme selection to a cell that does not
// pin its own.
func (o Options) withScheme(sc sim.Scenario) sim.Scenario {
	if o.Scheme != "" && sc.Scheme == "" {
		sc.Scheme = o.Scheme
	}
	return sc
}

// run simulates every repeat of one cell, emits a record per repeat to the
// sink (when configured), and returns the aggregated cell result.
func (o Options) run(sc sim.Scenario) (*cellResult, error) {
	sc = o.withScheme(sc)
	n := o.repeats()
	rs := make([]*sim.Result, n)
	for i := 0; i < n; i++ {
		var r *sim.Result
		var err error
		if o.Runner != nil {
			r, err = o.Runner.RunRepeatCtx(o.ctx(), sc, o.Params, i)
		} else {
			r, err = sim.Run(o.ctx(), sc, o.Params.ForRepeat(i), nil, nil)
		}
		if err != nil {
			return nil, err
		}
		if o.Sink != nil {
			o.Sink.Add(report.FromResult(o.Exp, sc, o.Params, i, r))
		}
		rs[i] = r
	}
	if n == 1 {
		return &cellResult{Result: rs[0]}, nil
	}
	mean, std := sim.Aggregate(rs)
	return &cellResult{Result: mean, sigma: std}, nil
}

// lat renders the cell's mean walk latency, with the run-to-run σ appended
// when multiple repeats were simulated.
func (c *cellResult) lat() string {
	if c.sigma == nil {
		return stats.F1(c.AvgWalkLat)
	}
	return stats.F1(c.AvgWalkLat) + " ± " + stats.F1(c.sigma.AvgWalkLat)
}

// prefetch queues every repeat of the given cells for concurrent execution
// ahead of the in-order collection pass. It is a no-op without a runner.
func (o Options) prefetch(scs ...sim.Scenario) {
	if o.Runner == nil {
		return
	}
	for _, sc := range scs {
		sc = o.withScheme(sc)
		for i := 0; i < o.repeats(); i++ {
			o.Runner.SubmitRepeatCtx(o.ctx(), sc, o.Params, i)
		}
	}
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// asap builds the scenario ASAP configurations used across experiments.
var (
	cfgP1    = sim.ASAPConfig{Native: core.Config{P1: true}}
	cfgP1P2  = sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}
	cfgG1    = sim.ASAPConfig{Guest: core.Config{P1: true}}
	cfgG12   = sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}}
	cfgG1H1  = sim.ASAPConfig{Guest: core.Config{P1: true}, Host: core.Config{P1: true}}
	cfgAll4  = sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}
	cfgFig12 = sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P2: true}}
)

// Table1 reproduces the motivation table: memcached walk-latency growth under
// a 5× dataset, SMT colocation, virtualization, and both (paper: 1.2×, 2.7×,
// 5.3×, 12×; normalized to native isolated mc80).
func Table1(o Options) error {
	mc80, ok := workload.ByName("mc80")
	if !ok {
		return fmt.Errorf("exp: mc80 not defined")
	}
	mc400, ok := workload.ByName("mc400")
	if !ok {
		return fmt.Errorf("exp: mc400 not defined")
	}
	cells := []struct {
		name string
		sc   sim.Scenario
	}{
		{"5× larger dataset", sim.Scenario{Workload: mc400}},
		{"SMT colocation", sim.Scenario{Workload: mc80, Colocated: true}},
		{"Virtualization", sim.Scenario{Workload: mc80, Virtualized: true}},
		{"Virtualization + SMT colocation", sim.Scenario{Workload: mc80, Virtualized: true, Colocated: true}},
	}
	o.prefetch(sim.Scenario{Workload: mc80})
	for _, c := range cells {
		o.prefetch(c.sc)
	}
	base, err := o.run(sim.Scenario{Workload: mc80})
	if err != nil {
		return err
	}
	tb := stats.NewTable("scenario", "avg walk latency", "vs native isolated", "paper")
	tb.AddRow("native isolated (80GB)", base.lat(), "1.0×", "1.0×")
	paper := []string{"1.2×", "2.7×", "5.3×", "12.0×"}
	for i, c := range cells {
		r, err := o.run(c.sc)
		if err != nil {
			return err
		}
		tb.AddRow(c.name, r.lat(), stats.Ratio(r.AvgWalkLat/base.AvgWalkLat), paper[i])
	}
	o.printf("Table 1: memcached page-walk latency under pressure (normalized)\n\n%s\n", tb)
	return nil
}

// Table3 prints the workload roster (paper Table 3).
func Table3(o Options) error {
	tb := stats.NewTable("name", "dataset", "pattern", "description")
	for _, s := range o.Workloads {
		tb.AddRow(s.Name, fmt.Sprintf("%dGB", s.DatasetBytes>>30), s.Pattern.String(), s.Description)
	}
	o.printf("Table 3: workloads\n\n%s\n", tb)
	return nil
}

// Table5 prints the simulated platform parameters (paper Table 5).
func Table5(o Options) error {
	p := o.Params
	tb := stats.NewTable("parameter", "value")
	tb.AddRow("L1 I/D-TLB", "64 entries, 8-way")
	tb.AddRow("L2 S-TLB", "1536 entries, 6-way")
	tb.AddRow("PWC", fmt.Sprintf("split: PL4 %de FA, PL3 %de FA, PL2 %de %d-way, %d cycles",
		p.PWC.PL4Entries, p.PWC.PL3Entries, p.PWC.PL2Entries, p.PWC.PL2Ways, p.PWC.Latency))
	tb.AddRow("L1-D", fmt.Sprintf("%dKB, %d-way, %d cycles", p.Cache.L1.SizeBytes>>10, p.Cache.L1.Ways, p.Cache.L1.Latency))
	tb.AddRow("L2", fmt.Sprintf("%dKB, %d-way, %d cycles", p.Cache.L2.SizeBytes>>10, p.Cache.L2.Ways, p.Cache.L2.Latency))
	tb.AddRow("L3", fmt.Sprintf("%dMB, %d-way, %d cycles", p.Cache.L3.SizeBytes>>20, p.Cache.L3.Ways, p.Cache.L3.Latency))
	tb.AddRow("Main memory", fmt.Sprintf("%d cycles", p.Cache.MemLatency))
	tb.AddRow("MSHRs", fmt.Sprintf("%d", p.MSHRs))
	tb.AddRow("Range registers", fmt.Sprintf("%d", p.RangeRegisters))
	o.printf("Table 5: simulation parameters\n\n%s\n", tb)
	return nil
}

// Fig2 reproduces the fraction of execution time spent in page walks across
// the four deployment scenarios (execution-time model; see DESIGN.md).
func Fig2(o Options) error {
	tb := stats.NewTable("workload", "native", "native+colo", "virt", "virt+colo")
	var sums [4]stats.Mean
	for _, w := range o.Workloads {
		s := fourScenarios(w)
		o.prefetch(s[:]...)
	}
	for _, w := range o.Workloads {
		row := []string{w.Name}
		for i, sc := range fourScenarios(w) {
			r, err := o.run(sc)
			if err != nil {
				return err
			}
			sums[i].Add(r.WalkFraction)
			row = append(row, stats.Pct(r.WalkFraction))
		}
		tb.AddRow(row...)
	}
	tb.AddRow("Average", stats.Pct(sums[0].Value()), stats.Pct(sums[1].Value()), stats.Pct(sums[2].Value()), stats.Pct(sums[3].Value()))
	o.printf("Figure 2: fraction of execution time spent in page walks\n\n%s\n", tb)
	return nil
}

// Fig3 reproduces average page-walk latency across the four deployment
// scenarios.
func Fig3(o Options) error {
	tb := stats.NewTable("workload", "native", "native+colo", "virt", "virt+colo")
	var sums [4]stats.Mean
	for _, w := range o.Workloads {
		s := fourScenarios(w)
		o.prefetch(s[:]...)
	}
	for _, w := range o.Workloads {
		row := []string{w.Name}
		for i, sc := range fourScenarios(w) {
			r, err := o.run(sc)
			if err != nil {
				return err
			}
			sums[i].Add(r.AvgWalkLat)
			row = append(row, r.lat())
		}
		tb.AddRow(row...)
	}
	tb.AddRow("Average", stats.F1(sums[0].Value()), stats.F1(sums[1].Value()), stats.F1(sums[2].Value()), stats.F1(sums[3].Value()))
	o.printf("Figure 3: average page walk latency (cycles)\n\n%s\n", tb)
	return nil
}

func fourScenarios(w workload.Spec) [4]sim.Scenario {
	return [4]sim.Scenario{
		{Workload: w},
		{Workload: w, Colocated: true},
		{Workload: w, Virtualized: true},
		{Workload: w, Virtualized: true, Colocated: true},
	}
}

// Fig8 reproduces native walk latency for Baseline/P1/P1+P2, in isolation (a)
// and under SMT colocation (b).
func Fig8(o Options) error {
	cells := func(w workload.Spec, colo bool) [3]sim.Scenario {
		return [3]sim.Scenario{
			{Workload: w, Colocated: colo},
			{Workload: w, Colocated: colo, ASAP: cfgP1},
			{Workload: w, Colocated: colo, ASAP: cfgP1P2},
		}
	}
	for _, colo := range []bool{false, true} {
		for _, w := range o.Workloads {
			c := cells(w, colo)
			o.prefetch(c[:]...)
		}
	}
	for _, colo := range []bool{false, true} {
		label := "Figure 8a: native, isolation"
		if colo {
			label = "Figure 8b: native, SMT colocation"
		}
		tb := stats.NewTable("workload", "Baseline", "P1", "P1+P2", "P1 red.", "P1+P2 red.")
		var sums [3]stats.Mean
		for _, w := range o.Workloads {
			var res [3]*cellResult
			for i, sc := range cells(w, colo) {
				r, err := o.run(sc)
				if err != nil {
					return err
				}
				res[i] = r
				sums[i].Add(r.AvgWalkLat)
			}
			tb.AddRow(w.Name, res[0].lat(), res[1].lat(), res[2].lat(),
				stats.Pct(1-res[1].AvgWalkLat/res[0].AvgWalkLat),
				stats.Pct(1-res[2].AvgWalkLat/res[0].AvgWalkLat))
		}
		tb.AddRow("Average", stats.F1(sums[0].Value()), stats.F1(sums[1].Value()), stats.F1(sums[2].Value()),
			stats.Pct(1-sums[1].Value()/sums[0].Value()), stats.Pct(1-sums[2].Value()/sums[0].Value()))
		o.printf("%s (avg walk latency, cycles; lower is better)\n\n%s\n", label, tb)
	}
	return nil
}

// Fig9 reproduces the per-PT-level serving breakdown for mcf and redis, in
// isolation and under colocation.
func Fig9(o Options) error {
	names := []string{"mcf", "redis"}
	for _, name := range names {
		if w, ok := workload.ByName(name); ok {
			o.prefetch(sim.Scenario{Workload: w}, sim.Scenario{Workload: w, Colocated: true})
		}
	}
	for _, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("exp: %s not defined", name)
		}
		for _, colo := range []bool{false, true} {
			r, err := o.run(sim.Scenario{Workload: w, Colocated: colo})
			if err != nil {
				return err
			}
			mode := "isolation"
			if colo {
				mode = "SMT colocation"
			}
			tb := stats.NewTable("PT level", "PWC", "L1", "L2", "LLC", "Mem")
			for level := 4; level >= 1; level-- {
				tb.AddRow(fmt.Sprintf("PL%d", level),
					stats.Pct(r.Breakdown.Fraction(level, 0)),
					stats.Pct(r.Breakdown.Fraction(level, 1)),
					stats.Pct(r.Breakdown.Fraction(level, 2)),
					stats.Pct(r.Breakdown.Fraction(level, 3)),
					stats.Pct(r.Breakdown.Fraction(level, 4)))
			}
			o.printf("Figure 9: %s under %s — walk requests served by level\n\n%s\n", name, mode, tb)
		}
	}
	return nil
}

// Fig10 reproduces virtualized walk latency for the guest/host ASAP
// configurations, in isolation (a) and under colocation (b).
func Fig10(o Options) error {
	configs := []sim.ASAPConfig{{}, cfgG1, cfgG12, cfgG1H1, cfgAll4}
	names := []string{"Baseline", "P1g", "P1g+P2g", "P1g+P1h", "P1g+P1h+P2g+P2h"}
	cells := func(w workload.Spec, colo bool) []sim.Scenario {
		out := make([]sim.Scenario, len(configs))
		for i, cfg := range configs {
			out[i] = sim.Scenario{Workload: w, Virtualized: true, Colocated: colo, ASAP: cfg}
		}
		return out
	}
	for _, colo := range []bool{false, true} {
		for _, w := range o.Workloads {
			o.prefetch(cells(w, colo)...)
		}
	}
	for _, colo := range []bool{false, true} {
		label := "Figure 10a: virtualized, isolation"
		if colo {
			label = "Figure 10b: virtualized, SMT colocation"
		}
		header := append([]string{"workload"}, names...)
		header = append(header, "best red.")
		tb := stats.NewTable(header...)
		sums := make([]stats.Mean, len(configs))
		for _, w := range o.Workloads {
			lat := make([]float64, len(configs))
			row := []string{w.Name}
			for i, sc := range cells(w, colo) {
				r, err := o.run(sc)
				if err != nil {
					return err
				}
				lat[i] = r.AvgWalkLat
				sums[i].Add(r.AvgWalkLat)
				row = append(row, r.lat())
			}
			tb.AddRow(append(row, stats.Pct(1-lat[len(lat)-1]/lat[0]))...)
		}
		avg := []string{"Average"}
		for i := range configs {
			avg = append(avg, stats.F1(sums[i].Value()))
		}
		avg = append(avg, stats.Pct(1-sums[len(configs)-1].Value()/sums[0].Value()))
		tb.AddRow(avg...)
		o.printf("%s (avg walk latency, cycles; lower is better)\n\n%s\n", label, tb)
	}
	return nil
}

// Fig12 reproduces virtualized latency with 2 MB host pages: baseline vs ASAP
// (P1g+P2g in the guest, P2h in the host), in isolation and under colocation.
func Fig12(o Options) error {
	tb := stats.NewTable("workload", "Baseline", "ASAP", "red.", "Baseline+colo", "ASAP+colo", "colo red.")
	var sums [4]stats.Mean
	fig12Cells := []struct {
		colo bool
		cfg  sim.ASAPConfig
	}{
		{false, sim.ASAPConfig{}},
		{false, cfgFig12},
		{true, sim.ASAPConfig{}},
		{true, cfgFig12},
	}
	for _, w := range o.Workloads {
		for _, cell := range fig12Cells {
			o.prefetch(sim.Scenario{Workload: w, Virtualized: true, HostHugePages: true, Colocated: cell.colo, ASAP: cell.cfg})
		}
	}
	for _, w := range o.Workloads {
		var res [4]*cellResult
		for i, cell := range fig12Cells {
			r, err := o.run(sim.Scenario{Workload: w, Virtualized: true, HostHugePages: true, Colocated: cell.colo, ASAP: cell.cfg})
			if err != nil {
				return err
			}
			res[i] = r
			sums[i].Add(r.AvgWalkLat)
		}
		tb.AddRow(w.Name, res[0].lat(), res[1].lat(),
			stats.Pct(1-res[1].AvgWalkLat/res[0].AvgWalkLat),
			res[2].lat(), res[3].lat(),
			stats.Pct(1-res[3].AvgWalkLat/res[2].AvgWalkLat))
	}
	tb.AddRow("Average", stats.F1(sums[0].Value()), stats.F1(sums[1].Value()),
		stats.Pct(1-sums[1].Value()/sums[0].Value()),
		stats.F1(sums[2].Value()), stats.F1(sums[3].Value()),
		stats.Pct(1-sums[3].Value()/sums[2].Value()))
	o.printf("Figure 12: virtualized with 2MB host pages (avg walk latency, cycles)\n\n%s\n", tb)
	return nil
}
