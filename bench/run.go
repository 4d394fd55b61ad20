package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// clients is the closed loop's client count: each client submits the next
// cell of the grid and waits for its result before taking another. Two match
// the two cores the benchmark was sized on.
const clients = 2

// simulateFunc runs one cell; runner.Runner.RunCtx is the real one.
type simulateFunc func(ctx context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error)

// newRunner returns a fresh memoizing runner, so no timed iteration is served
// from an earlier iteration's memo.
func newRunner() (simulateFunc, func()) {
	r := runner.New(clients)
	return r.RunCtx, r.Close
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	// seconds bounds the timed phase: iterations run until the next one would
	// end past it (at least one, two when traced).
	seconds float64
	traced  bool
	// protocol holds the measurement protocol of every cell; its Seed is
	// replaced by seed.
	protocol   sim.Params
	setupRuns  int
	probeCalls int
	// newSimulator supplies each timed iteration's cell executor and its
	// release; tests substitute a fake.
	newSimulator func() (simulateFunc, func())
	stderr       io.Writer
}

// report is what a run measured.
type report struct {
	workload          string
	iterations        int
	e2e, layer        []metric
	host, model       []metric // printed with an untraced run's end-to-end metrics
	attempted, failed int
	spans             []span
}

// metric is one named measurement: value rests on n samples (0 for an exact
// count), and a median carries its quartiles.
type metric struct {
	name, unit string
	value      float64
	n          int
	quartiles  bool
	q1, q3     float64
}

// summarize reports the median of xs with its quartiles.
func summarize(name, unit string, xs []float64) metric {
	q1, q3 := quartiles(xs)
	return metric{name: name, unit: unit, value: median(xs), n: len(xs), quartiles: true, q1: q1, q3: q3}
}

// timing is one measured duration with the host kernel's mean time right
// before and after it.
type timing struct{ d, kernel time.Duration }

// iteration is one timed pass over the grid.
type iteration struct {
	traced    bool
	wall, cpu time.Duration
	kernel    time.Duration // the host kernel's mean time right before and after
	allocMB   float64
	gcs       float64
	results   []*sim.Result
	errs      []error
	latency   []time.Duration
}

// runGrid is the closed loop: clients goroutines each take the next cell
// index, run it and wait for the result, until the grid is exhausted. Each
// cell gets a span on its client's track when rec is non-nil.
func runGrid(ctx context.Context, cells []cell, rec *spanRecorder, parent int,
	run func(ctx context.Context, i int) (*sim.Result, error)) ([]*sim.Result, []error, []time.Duration) {
	results := make([]*sim.Result, len(cells))
	errs := make([]error, len(cells))
	lat := make([]time.Duration, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				id := rec.begin(parent, "cell", client+1, map[string]string{
					"scenario": cells[i].sc.Name(), "client": strconv.Itoa(client)})
				t0 := time.Now()
				results[i], errs[i] = run(ctx, i)
				lat[i] = time.Since(t0)
				rec.end(id)
			}
		}(c)
	}
	wg.Wait()
	return results, errs, lat
}

// cpuTime returns the process's user plus system CPU time and its peak
// resident set in MB.
func cpuTime() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// timeIteration runs the grid once through a fresh simulator.
func timeIteration(ctx context.Context, o options, cells []cell, rec *spanRecorder, parent int) iteration {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := cpuTime()
	t0 := time.Now()
	simulate, release := o.newSimulator()
	results, errs, lat := runGrid(ctx, cells, rec, parent, func(ctx context.Context, i int) (*sim.Result, error) {
		return simulate(ctx, cells[i].sc, cells[i].p)
	})
	release()
	wall := time.Since(t0)
	cpu1, _ := cpuTime()
	runtime.ReadMemStats(&ms1)
	return iteration{
		wall: wall, cpu: cpu1 - cpu0,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcs:     float64(ms1.NumGC - ms0.NumGC),
		results: results, errs: errs, latency: lat,
	}
}

// calibration is the untimed first pass: exact reference counts per cell from
// a counting tap, and the reference Results every timed pass must reproduce.
type calibration struct {
	refs    []uint64
	results []*sim.Result
	errs    []error
}

func calibrate(ctx context.Context, cells []cell, rec *spanRecorder, parent int) calibration {
	refs := make([]uint64, len(cells))
	results, errs, _ := runGrid(ctx, cells, rec, parent, func(ctx context.Context, i int) (*sim.Result, error) {
		var tap countTap
		res, err := sim.RunTapped(cells[i].sc, cells[i].p, &tap)
		refs[i] = tap.n
		return res, err
	})
	return calibration{refs: refs, results: results, errs: errs}
}

// countTap is a sim.RefTap that counts references.
type countTap struct{ n uint64 }

func (t *countTap) BeginProcess(int, workload.Spec, *workload.Layout, uint64) error { return nil }
func (t *countTap) Ref(int, mem.VirtAddr)                                           { t.n++ }

// run performs one benchmark run: set-up, calibration, timed iterations and,
// when traced, the layer probes.
func run(ctx context.Context, o options) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	p := o.protocol
	p.Seed = o.seed
	var rec *spanRecorder
	if o.traced {
		rec = newSpanRecorder()
	}
	root := rec.begin(0, "run", 0, map[string]string{"workload": w.name, "seed": strconv.FormatUint(o.seed, 10)})
	chk := &checker{out: o.stderr}

	// Set-up: make the inputs (untimed), then time cold starts in fresh
	// processes.
	setupID := rec.begin(root, "setup", 0, nil)
	var raw []byte
	var captured *sim.Result
	var capture *trace.Trace
	if w.name == "schemes" {
		if raw, captured, err = recordCapture(p); err != nil {
			return nil, err
		}
		if capture, err = loadCapture(raw); err != nil {
			return nil, err
		}
	}
	cells, err := w.cells(p, capture)
	if err != nil {
		return nil, err
	}
	host, err := newHostKernel()
	if err != nil {
		return nil, err
	}
	defer host.close()
	setups := make([]timing, o.setupRuns)
	kernel := host.time()
	for i := range setups {
		id := rec.begin(setupID, "setup.child", 0, nil)
		d, err := runSetupChild(ctx, w.name, o.seed, raw)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		// Like every measured time, scaled by the mean of the host
		// kernel's times right before and after it.
		after := host.time()
		setups[i], kernel = timing{d, (kernel + after) / 2}, after
	}
	rec.end(setupID)

	calID := rec.begin(root, "calibration", 0, nil)
	cal := calibrate(ctx, cells, rec, calID)
	rec.end(calID)
	for i, c := range cells {
		if cal.errs[i] != nil {
			chk.cell(fmt.Sprintf("calibration %s: %v", c.sc.Name(), cal.errs[i]))
			continue
		}
		problems := invariants(c, cal.results[i])
		if captured != nil && c.sc.Trace != "" && c.sc.Scheme == "" && !c.sc.ASAP.Enabled() {
			problems = append(problems, sameAsCapture(c, captured, cal.results[i])...)
		}
		chk.cell(problems...)
	}
	if chk.failed > 0 {
		// Timed passes would compare against a broken reference.
		rec.end(root)
		return &report{workload: w.name, attempted: chk.attempted, failed: chk.failed}, nil
	}

	var iters []iteration
	minIters := 1
	if o.traced {
		minIters = 2
	}
	start := time.Now()
	kernel = host.time()
	for k := 0; ; k++ {
		// Each iteration starts from a collected heap, so its allocation,
		// collections and peak memory do not depend on where the previous
		// one left the collector.
		runtime.GC()
		// Traced runs alternate untraced and traced iterations, so the
		// tracing overhead is measured back to back in one process.
		var r *spanRecorder
		if o.traced && k%2 == 1 {
			r = rec
		}
		id := r.begin(root, "iteration", 0, map[string]string{"index": strconv.Itoa(k)})
		it := timeIteration(ctx, o, cells, r, id)
		r.end(id)
		after := host.time()
		it.traced, it.kernel = r != nil, (kernel+after)/2
		kernel = after
		for i, c := range cells {
			switch {
			case it.errs[i] != nil:
				chk.cell(fmt.Sprintf("iteration %d %s: %v", k, c.sc.Name(), it.errs[i]))
			case it.traced && iters[k-1].errs[i] == nil:
				chk.cell(sameResult(fmt.Sprintf("traced iteration %d vs untraced", k), c, iters[k-1].results[i], it.results[i])...)
			default:
				chk.cell(sameResult(fmt.Sprintf("iteration %d vs calibration", k), c, cal.results[i], it.results[i])...)
			}
		}
		iters = append(iters, it)
		fmt.Fprintf(o.stderr, "bench: iteration %d traced=%v wall %.3fs cpu %.3fs host kernel %.1fms\n",
			k, it.traced, it.wall.Seconds(), it.cpu.Seconds(), float64(it.kernel)/1e6)
		if len(iters) >= minIters && time.Since(start).Seconds()+it.wall.Seconds() > o.seconds {
			break
		}
	}

	rep := &report{workload: w.name, iterations: len(iters)}
	rep.e2e = endToEndMetrics(cells, cal, iters, setups)
	rep.host = hostMetrics(iters, setups)
	rep.model = modelMetrics(cells, cal)
	if o.traced {
		probeID := rec.begin(root, "probes", 0, nil)
		probes, err := runProbes(o, cells, rec, probeID)
		rec.end(probeID)
		if err != nil {
			return nil, err
		}
		rep.layer = layerMetrics(cells, cal, iters, rep.host, rep.model, probes)
	}
	rec.end(root)
	rep.attempted, rep.failed = chk.attempted, chk.failed
	if rec != nil {
		rep.spans = rec.snapshot()
	}
	return rep, nil
}
