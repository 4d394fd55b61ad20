package main

import (
	"repro/internal/cache"
	"repro/internal/sim"
)

// ledgerRow attributes one probe's cost per call to a pass over the grid:
// calls is how many times a cell makes that call, given its reference count
// (exact, from the calibration tap) and its Result. A nested row's calls
// happen inside another row's, so it is reported but not summed into the
// explained share.
type ledgerRow struct {
	probe  string
	nested bool
	calls  func(c cell, refs float64, r *sim.Result) float64
}

func nativeASAP(c cell) bool { return !c.sc.Virtualized && c.sc.SchemeName() == "asap" }

// totalWalks is a cell's warm-up plus measured walks.
func totalWalks(c cell, r *sim.Result) float64 {
	return float64(c.p.WarmupWalks) + float64(r.Walks)
}

// runScale extrapolates a measured-window count to the whole run (warm-up
// included) by the ratio of total to measured walks: an estimate.
func runScale(c cell, r *sim.Result) float64 {
	return ratio(totalWalks(c, r), float64(r.Walks))
}

// coAccesses estimates the data-traffic accesses a cell pushes into the
// hierarchy: the SMT co-runner issues one per CoAccessCycles of application
// progress (TotalCycles covers it exactly in the measured window), and a
// multi-process run replays one per CoAccessCycles of each quantum's nominal
// progress (TotalCycles less walk and, approximately, switch cycles).
func coAccesses(c cell, _ float64, r *sim.Result) float64 {
	var n float64
	if c.sc.Colocated {
		n += r.TotalCycles / c.p.CoAccessCycles
	}
	if c.p.Processes > 1 {
		n += (r.TotalCycles - float64(r.WalkCycles) - float64(r.Switches)*c.p.SwitchCycles) / c.p.CoAccessCycles
	}
	return n * runScale(c, r)
}

// refsWhen counts a cell's references when pred holds (exact).
func refsWhen(pred func(c cell) bool) func(cell, float64, *sim.Result) float64 {
	return func(c cell, refs float64, _ *sim.Result) float64 {
		if pred(c) {
			return refs
		}
		return 0
	}
}

// walksWhen counts a cell's walks when pred holds (exact).
func walksWhen(pred func(c cell) bool) func(cell, float64, *sim.Result) float64 {
	return func(c cell, _ float64, r *sim.Result) float64 {
		if pred(c) {
			return totalWalks(c, r)
		}
		return 0
	}
}

// switches estimates a cell's context switches under one policy.
func switches(flush bool) func(cell, float64, *sim.Result) float64 {
	return func(c cell, _ float64, r *sim.Result) float64 {
		if c.p.Processes > 1 && c.p.FlushOnSwitch == flush {
			return float64(r.Switches) * runScale(c, r)
		}
		return 0
	}
}

var ledgerRows = []ledgerRow{
	{probe: "workload.next", calls: refsWhen(func(c cell) bool { return c.sc.Trace == "" })},
	{probe: "trace.replay", calls: refsWhen(func(c cell) bool { return c.sc.Trace != "" })},
	{probe: "workload.sched_tick", calls: refsWhen(func(c cell) bool { return c.p.Processes > 1 })},
	{probe: "mmu.translate_asap", calls: refsWhen(nativeASAP)},
	{probe: "mmu.translate_victima", calls: refsWhen(func(c cell) bool { return c.sc.SchemeName() == "victima" })},
	{probe: "mmu.translate_revelator", calls: refsWhen(func(c cell) bool { return c.sc.SchemeName() == "revelator" })},
	// Virtualized cells: the TLB probe of every reference; their nested
	// walks have no probe and stay unexplained.
	{probe: "tlb.lookup", calls: refsWhen(func(c cell) bool { return c.sc.Virtualized })},
	{probe: "workload.corunner_next", calls: coAccesses},
	{probe: "cache.access_corunner", calls: coAccesses},
	{probe: "mmu.switch_flush", calls: switches(true)},
	{probe: "mmu.switch_asid", calls: switches(false)},
	{probe: "cache.new_hierarchy", calls: func(cell, float64, *sim.Result) float64 { return 1 }},

	// Inside mmu.translate_asap.
	{probe: "walker.walk", nested: true, calls: walksWhen(nativeASAP)},
	{probe: "pt.walk", nested: true, calls: walksWhen(nativeASAP)},
	{probe: "pwc.lookup", nested: true, calls: walksWhen(nativeASAP)},
	{probe: "core.targets", nested: true, calls: walksWhen(func(c cell) bool { return nativeASAP(c) && c.sc.ASAP.Native.Enabled() })},
	// Walk accesses the hierarchy served (PWC skips excluded), scaled from
	// the measured window.
	{probe: "cache.access_walk", nested: true, calls: func(c cell, _ float64, r *sim.Result) float64 {
		if !nativeASAP(c) {
			return 0
		}
		var n float64
		for level := 1; level <= 5; level++ {
			n += float64(r.Breakdown.Total(level) - r.Breakdown.Count(level, cache.ServedPWC))
		}
		return n * runScale(c, r)
	}},
	// Inside cache.access_corunner: random co-runner lines miss L1 and L2
	// and probe the LLC.
	{probe: "cache.llc_lookupinsert", nested: true, calls: coAccesses},
}

// ledger reports each row's share of one iteration's CPU time, cpuNs, and
// the summed share of the rows that are not nested.
func ledger(cells []cell, cal calibration, probes []metric, cpuNs float64) []metric {
	perCall := map[string]float64{}
	for _, p := range probes {
		probe, _, scale := probeUnit(p.name)
		perCall[probe] = p.value * scale
	}
	var out []metric
	var explained float64
	for _, row := range ledgerRows {
		var calls float64
		for i, c := range cells {
			calls += row.calls(c, float64(cal.refs[i]), cal.results[i])
		}
		share := ratio(perCall[row.probe]*calls, cpuNs)
		if !row.nested {
			explained += share
		}
		out = append(out, metric{name: "ledger." + row.probe + "_share", unit: "ratio", value: share})
	}
	return append(out, metric{name: "ledger.explained_share", unit: "ratio", value: explained})
}
