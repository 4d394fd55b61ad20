package main

import "repro/internal/cache"

// metricSpec declares a metric the way BENCHMARK.json does: its unit, which
// direction is better and, for end-to-end metrics, the share of the parent's
// median by which it may worsen before a change counts as a regression.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics an untraced run reports, in output order.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"refs_per_s", "refs/s", "higher", 0.25},
	{"walks_per_s", "walks/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.20},
}

// untraced returns the iterations run without spans; the end-to-end metrics
// come from these alone.
func untraced(iters []iteration) []iteration {
	var out []iteration
	for _, it := range iters {
		if !it.traced {
			out = append(out, it)
		}
	}
	return out
}

// totals returns the references and walks one pass over the grid simulates:
// references exactly, from the calibration tap, and walks as each cell's
// warm-up walks plus its measured ones.
func totals(cells []cell, cal calibration) (refs, walks float64) {
	for i, c := range cells {
		refs += float64(cal.refs[i])
		walks += float64(c.p.WarmupWalks) + float64(cal.results[i].Walks)
	}
	return refs, walks
}

// endToEndMetrics reports the untraced iterations' times and rates at the
// reference host speed (see hostref.go), the set-up time likewise, and the
// process's peak resident set.
func endToEndMetrics(cells []cell, cal calibration, iters []iteration, setups []timing) []metric {
	refs, walks := totals(cells, cal)
	var wall, cpu, refRate, walkRate, setup []float64
	for _, it := range untraced(iters) {
		w := atReference(it.wall, it.kernel)
		wall = append(wall, w)
		cpu = append(cpu, atReference(it.cpu, it.kernel))
		refRate = append(refRate, refs/w)
		walkRate = append(walkRate, walks/w)
	}
	for _, s := range setups {
		setup = append(setup, atReference(s.d, s.kernel))
	}
	_, rss := cpuTime()
	return []metric{
		summarize("wall_s", "s", wall),
		summarize("cpu_s", "s", cpu),
		summarize("refs_per_s", "refs/s", refRate),
		summarize("walks_per_s", "walks/s", walkRate),
		summarize("setup_s", "s", setup),
		{name: "max_rss_mb", unit: "MB", value: rss, n: 1},
	}
}

// hostMetrics reports the times as measured, before scaling to the reference
// host speed, and the host kernel's own time.
func hostMetrics(iters []iteration, setups []timing) []metric {
	var kernel, wall, cpu, setup []float64
	for _, s := range setups {
		kernel = append(kernel, float64(s.kernel)/1e6)
		setup = append(setup, s.d.Seconds())
	}
	for _, it := range iters {
		kernel = append(kernel, float64(it.kernel)/1e6)
	}
	for _, it := range untraced(iters) {
		wall = append(wall, it.wall.Seconds())
		cpu = append(cpu, it.cpu.Seconds())
	}
	return []metric{
		summarize("host.kernel_ms", "ms", kernel),
		summarize("host.wall_s", "s", wall),
		summarize("host.cpu_s", "s", cpu),
		summarize("host.setup_s", "s", setup),
	}
}

// modelMetrics sums the simulated statistics over the grid. They depend only
// on the code's model and the seed, so a change meant only to speed the
// simulator up must leave every one of them identical.
func modelMetrics(cells []cell, cal calibration) []metric {
	refs, walks := totals(cells, cal)
	var measured, walkCycles, accesses, misses, kiloInstr float64
	var covered, issued, accelHits float64
	var dropped, switches, flushes float64
	var served [cache.NumServedBy]float64
	for _, r := range cal.results {
		w := float64(r.Walks)
		measured += w
		walkCycles += float64(r.WalkCycles)
		accesses += float64(r.Accesses)
		misses += r.TLBMissRatio * float64(r.Accesses)
		if r.MPKI > 0 {
			kiloInstr += w / r.MPKI
		}
		covered += float64(r.PrefetchCovered)
		issued += float64(r.PrefetchIssued)
		accelHits += r.RangeHitRate * w
		dropped += float64(r.MSHRDropped)
		switches += float64(r.Switches)
		flushes += float64(r.ShootdownFlushes)
		for level := 1; level <= 5; level++ {
			for s := range served {
				served[s] += float64(r.Breakdown.Count(level, cache.ServedBy(s)))
			}
		}
	}
	exact := func(name, unit string, v float64) metric { return metric{name: name, unit: unit, value: v} }
	return []metric{
		exact("model.refs", "count", refs),
		exact("model.walks", "count", walks),
		exact("model.avg_walk_cycles", "cycles", ratio(walkCycles, measured)),
		exact("model.tlb_miss_ratio", "ratio", ratio(misses, accesses)),
		exact("model.mpki", "1/kinstr", ratio(measured, kiloInstr)),
		exact("model.served_pwc", "count", served[cache.ServedPWC]),
		exact("model.served_l1", "count", served[cache.ServedL1]),
		exact("model.served_l2", "count", served[cache.ServedL2]),
		exact("model.served_llc", "count", served[cache.ServedL3]),
		exact("model.served_mem", "count", served[cache.ServedMem]),
		exact("model.prefetch_coverage", "ratio", ratio(covered, issued)),
		exact("model.accel_hit_rate", "ratio", ratio(accelHits, measured)),
		exact("model.mshr_dropped", "count", dropped),
		exact("model.switches", "count", switches),
		exact("model.shootdown_flushes", "count", flushes),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the traced run's per-layer report around the host
// and model metrics the run already computed.
func layerMetrics(cells []cell, cal calibration, iters []iteration, host, model, probes []metric) []metric {
	var cellMS, traced, plain, alloc, gcs, cpu []float64
	for _, it := range iters {
		for _, d := range it.latency {
			cellMS = append(cellMS, float64(d.Nanoseconds())/1e6)
		}
		if it.traced {
			traced = append(traced, atReference(it.wall, it.kernel))
			continue
		}
		plain = append(plain, atReference(it.wall, it.kernel))
		alloc = append(alloc, it.allocMB)
		gcs = append(gcs, it.gcs)
		cpu = append(cpu, float64(it.cpu.Nanoseconds()))
	}
	p50, _ := percentile(cellMS, 50)
	p90, _ := percentile(cellMS, 90)
	out := []metric{
		{name: "sim.cell_ms_p50", unit: "ms", value: p50, n: len(cellMS)},
		{name: "sim.cell_ms_p90", unit: "ms", value: p90, n: len(cellMS)},
		summarize("runtime.alloc_mb", "MB", alloc),
		summarize("runtime.gc_count", "count", gcs),
	}
	out = append(out, host...)
	out = append(out, model...)
	out = append(out, probes...)
	// Probe times and iteration CPU are both as measured, so the shares
	// need no scaling.
	out = append(out, ledger(cells, cal, probes, median(cpu))...)
	return append(out, metric{name: "bench.trace_overhead", unit: "ratio",
		value: median(traced)/median(plain) - 1, n: len(traced)})
}
