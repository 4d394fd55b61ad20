package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchWorkload is one fixed grid of scenario cells. The grids are chosen to
// load the simulator's layers differently; why records the reason, and
// BENCHMARK.json repeats it.
type benchWorkload struct {
	name string
	why  string
	// cells builds the grid under p. capture is the schemes workload's
	// in-memory trace (nil for the others).
	cells func(p sim.Params, capture *trace.Trace) ([]cell, error)
}

// cell is one scenario cell of a grid, with the parameters it runs under.
type cell struct {
	sc sim.Scenario
	p  sim.Params
}

var (
	p1p2     = sim.ASAPConfig{Native: core.Config{P1: true, P2: true}}
	p1p2Virt = sim.ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}
)

// multiprocMix is the process roster of the multiproc grid: process 0 is mcf,
// the rest are drawn from this list in order.
const multiprocMix = "mcf,canneal,redis,mc80"

var workloads = []benchWorkload{
	{
		name: "colo",
		why:  "Table 1 plus native/virt co-runner cells: SMT co-runner traffic into the 20 MB/20-way LLC dominates host time, so cache-layer work shows here",
		cells: func(p sim.Params, _ *trace.Trace) ([]cell, error) {
			specs, err := specsByName("mc80", "mc400", "mcf", "canneal", "redis")
			if err != nil {
				return nil, err
			}
			mc80, mc400, mcf, canneal, redis := specs[0], specs[1], specs[2], specs[3], specs[4]
			// Longest cells first, so the two clients finish together and
			// an iteration's wall time does not hinge on which client draws
			// a long cell last.
			return []cell{
				{sim.Scenario{Workload: redis, Virtualized: true, Colocated: true}, p},
				{sim.Scenario{Workload: redis, Colocated: true}, p},
				{sim.Scenario{Workload: mc80, Virtualized: true, Colocated: true}, p},
				{sim.Scenario{Workload: mc80, Colocated: true}, p},
				{sim.Scenario{Workload: canneal, Virtualized: true, Colocated: true}, p},
				{sim.Scenario{Workload: mcf, Virtualized: true, Colocated: true}, p},
				{sim.Scenario{Workload: canneal, Colocated: true}, p},
				{sim.Scenario{Workload: mcf, Colocated: true}, p},
				{sim.Scenario{Workload: mc80, Virtualized: true}, p},
				{sim.Scenario{Workload: mc400}, p},
				{sim.Scenario{Workload: mc80}, p},
			}, nil
		},
	},
	{
		name: "isolated",
		why:  "no co-runner: walk-bound cells (walker, page table, generator, TLB) where a cache-only change should read flat and per-cell fixed costs show",
		cells: func(p sim.Params, _ *trace.Trace) ([]cell, error) {
			specs, err := specsByName("mcf", "pagerank", "redis")
			if err != nil {
				return nil, err
			}
			var cells []cell
			for _, s := range specs {
				cells = append(cells,
					cell{sim.Scenario{Workload: s}, p},
					cell{sim.Scenario{Workload: s, ASAP: p1p2}, p},
					cell{sim.Scenario{Workload: s, Virtualized: true}, p},
					cell{sim.Scenario{Workload: s, Virtualized: true, ASAP: p1p2Virt}, p})
			}
			return cells, nil
		},
	},
	{
		name: "multiproc",
		why:  "the only time-shared workload: quantum data replay into the caches beside whole TLB/PWC flushes on context switches",
		cells: func(p sim.Params, _ *trace.Trace) ([]cell, error) {
			specs, err := specsByName("mcf")
			if err != nil {
				return nil, err
			}
			var cells []cell
			for _, n := range []int{2, 4} {
				for _, flush := range []bool{true, false} {
					for _, cfg := range []sim.ASAPConfig{{}, p1p2} {
						q := p
						q.Processes, q.FlushOnSwitch = n, flush
						cells = append(cells, cell{sim.Scenario{Workload: specs[0], ASAP: cfg, Mix: multiprocMix}, q})
					}
				}
			}
			return cells, nil
		},
	},
	{
		name: "schemes",
		why:  "replay of an in-memory redis capture under asap, victima and revelator, plus synthetic rival-scheme cells: trace decode and read-only cache probes",
		cells: func(p sim.Params, capture *trace.Trace) ([]cell, error) {
			if capture == nil {
				return nil, fmt.Errorf("schemes: no capture")
			}
			specs, err := specsByName("mcf", "mc80")
			if err != nil {
				return nil, err
			}
			replay := sim.UseTrace(capture)
			withASAP, victima, revelator := replay, replay, replay
			withASAP.ASAP = p1p2
			victima.Scheme = "victima"
			revelator.Scheme = "revelator"
			cells := []cell{{replay, p}, {withASAP, p}, {victima, p}, {revelator, p}}
			for _, s := range specs {
				for _, scheme := range []string{"victima", "revelator"} {
					cells = append(cells, cell{sim.Scenario{Workload: s, Scheme: scheme}, p})
				}
			}
			return cells, nil
		},
	},
}

// workloadByName returns the named benchmark workload.
func workloadByName(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func specsByName(names ...string) ([]workload.Spec, error) {
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown simulator workload %q", n)
		}
		out[i] = s
	}
	return out, nil
}

// captureScenario is the run the schemes workload records and replays.
func captureScenario() (sim.Scenario, error) {
	specs, err := specsByName("redis")
	if err != nil {
		return sim.Scenario{}, err
	}
	return sim.Scenario{Workload: specs[0]}, nil
}

// nopCloser lets an in-memory buffer stand in for a trace file.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// recordCapture runs the capture scenario under p with a trace.Recorder
// writing to memory, and returns the encoded trace with the run's Result.
func recordCapture(p sim.Params) ([]byte, *sim.Result, error) {
	sc, err := captureScenario()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(func(int) (io.WriteCloser, error) { return nopCloser{&buf}, nil }, false)
	res, err := sim.RunTapped(sc, p, rec)
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("recording %s: %w", sc.Name(), err)
	}
	return buf.Bytes(), res, nil
}

// loadCapture decodes a recorded capture.
func loadCapture(raw []byte) (*trace.Trace, error) {
	tr, err := trace.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("loading capture: %w", err)
	}
	return tr, nil
}
