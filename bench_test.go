// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment under a reduced
// measurement protocol (the full-fidelity numbers come from cmd/paperrepro)
// and reports the key headline metric alongside time/allocation counts.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchOptions is the reduced protocol shared by all experiment benchmarks:
// big enough to exercise every code path, small enough that the full suite
// completes in minutes on one core.
func benchOptions() exp.Options {
	o := exp.Fast(io.Discard)
	o.Params.WarmupWalks = 4_000
	o.Params.MeasureWalks = 3_000
	return o
}

// smallWorkloads keeps grid-shaped experiments to the quickest-to-build
// processes; single-workload experiments pick their own.
func smallWorkloads() []workload.Spec {
	var out []workload.Spec
	for _, name := range []string{"mcf", "canneal", "redis"} {
		s, ok := workload.ByName(name)
		if !ok {
			panic("missing workload " + name)
		}
		out = append(out, s)
	}
	return out
}

func benchExperiment(b *testing.B, name string, restrict bool) {
	b.Helper()
	o := benchOptions()
	if restrict {
		o.Workloads = smallWorkloads()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(name, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1MemcachedPressure(b *testing.B)  { benchExperiment(b, "table1", false) }
func BenchmarkTable2VMAStatistics(b *testing.B)      { benchExperiment(b, "table2", true) }
func BenchmarkTable3Workloads(b *testing.B)          { benchExperiment(b, "table3", false) }
func BenchmarkTable5Parameters(b *testing.B)         { benchExperiment(b, "table5", false) }
func BenchmarkFig2WalkTimeFraction(b *testing.B)     { benchExperiment(b, "fig2", true) }
func BenchmarkFig3WalkLatencyScenarios(b *testing.B) { benchExperiment(b, "fig3", true) }
func BenchmarkFig8NativeASAP(b *testing.B)           { benchExperiment(b, "fig8", true) }
func BenchmarkFig9ServedByBreakdown(b *testing.B)    { benchExperiment(b, "fig9", false) }
func BenchmarkFig10VirtualizedASAP(b *testing.B)     { benchExperiment(b, "fig10", true) }
func BenchmarkFig11ClusteredTLBAndASAP(b *testing.B) { benchExperiment(b, "fig11", true) }
func BenchmarkTable6PerfProjection(b *testing.B)     { benchExperiment(b, "table6", true) }
func BenchmarkTable7ClusteredTLBMPKI(b *testing.B)   { benchExperiment(b, "table7", true) }
func BenchmarkFig12HostHugePages(b *testing.B)       { benchExperiment(b, "fig12", true) }
func BenchmarkAblationPWCScaling(b *testing.B)       { benchExperiment(b, "ablation-pwc", true) }
func BenchmarkAblationRegionHoles(b *testing.B)      { benchExperiment(b, "ablation-holes", false) }
func BenchmarkAblationRangeRegisters(b *testing.B)   { benchExperiment(b, "ablation-regs", false) }
func BenchmarkAblationFiveLevel(b *testing.B)        { benchExperiment(b, "ablation-5level", true) }

// benchExperiments regenerates a sequence of experiments per iteration,
// optionally through a fresh memoizing parallel runner. The Sequential/Runner
// pairs below quantify the tentpole win: Fig 2 and Fig 3 iterate the exact
// same four-scenario × workload grid, so the runner simulates each unique
// cell once (and fans the unique cells across GOMAXPROCS workers), while the
// sequential path re-simulates the full grid for each figure.
func benchExperiments(b *testing.B, parallel bool, names ...string) {
	b.Helper()
	o := benchOptions()
	o.Workloads = smallWorkloads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := o
		var r *runner.Runner
		if parallel {
			r = runner.New(0)
			run.Runner = r
		}
		var err error
		for _, name := range names {
			if err = exp.Run(name, run); err != nil {
				break
			}
		}
		if r != nil {
			r.Close() // close before Fatal so failed iterations don't leak workers
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Fig3Sequential(b *testing.B) { benchExperiments(b, false, "fig2", "fig3") }
func BenchmarkFig2Fig3Runner(b *testing.B)     { benchExperiments(b, true, "fig2", "fig3") }

func BenchmarkAllExperimentsSequential(b *testing.B) { benchExperiments(b, false, "all") }
func BenchmarkAllExperimentsRunner(b *testing.B)     { benchExperiments(b, true, "all") }

// BenchmarkWalkBaseline and BenchmarkWalkASAP measure the simulator's core
// inner loop directly (one full scenario per iteration) and report the
// modelled average walk latency, so regressions in either simulation speed
// or modelled behaviour show up here.
func benchScenario(b *testing.B, sc sim.Scenario) {
	b.Helper()
	o := benchOptions()
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background(), sc, o.Params, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res.AvgWalkLat
	}
	b.ReportMetric(last, "walk-cycles/avg")
}

func BenchmarkWalkBaselineNative(b *testing.B) {
	w, _ := workload.ByName("mcf")
	benchScenario(b, sim.Scenario{Workload: w})
}

func BenchmarkWalkASAPNative(b *testing.B) {
	w, _ := workload.ByName("mcf")
	benchScenario(b, sim.Scenario{Workload: w, ASAP: sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}})
}

func BenchmarkWalkBaselineVirtualized(b *testing.B) {
	w, _ := workload.ByName("mcf")
	benchScenario(b, sim.Scenario{Workload: w, Virtualized: true})
}

func BenchmarkWalkASAPVirtualized(b *testing.B) {
	w, _ := workload.ByName("mcf")
	benchScenario(b, sim.Scenario{Workload: w, Virtualized: true,
		ASAP: sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}})
}
