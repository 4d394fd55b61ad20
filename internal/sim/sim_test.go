package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/workload"
)

// tinySpec is a fast-to-build workload for unit tests: 96 MiB dataset,
// uniform access with some locality.
func tinySpec() workload.Spec {
	return workload.Spec{
		Name:            "tiny",
		DatasetBytes:    96 * mem.MiB,
		SpreadFactor:    1.5,
		TotalVMAs:       6,
		BigVMAs:         2,
		Pattern:         workload.Uniform,
		HotFraction:     0.02,
		HotProb:         0.4,
		BurstLen:        2,
		LinesPerVisit:   2,
		DataStallCycles: 30,
		Contig8:         0.5,
		MeanPTRun:       4,
		DataPerPTNode:   1,
		InstrPerRef:     4,
	}
}

// fastParams shrinks the measurement protocol so tests stay quick.
func fastParams() Params {
	p := DefaultParams()
	p.WarmupWalks = 4000
	p.MeasureWalks = 4000
	return p
}

func run(t *testing.T, sc Scenario, p Params) *Result {
	t.Helper()
	res, err := Run(context.Background(), sc, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks == 0 || res.AvgWalkLat <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	return res
}

func TestNativeBaselinePlausible(t *testing.T) {
	res := run(t, Scenario{Workload: tinySpec()}, fastParams())
	// A 4-level walk with a 2-cycle PWC lies between 6 (full PWC + L1 hit)
	// and 766 (all memory) cycles.
	if res.AvgWalkLat < 6 || res.AvgWalkLat > 766 {
		t.Fatalf("baseline walk latency %v implausible", res.AvgWalkLat)
	}
	if res.TLBMissRatio <= 0 || res.TLBMissRatio > 1 {
		t.Fatalf("miss ratio %v", res.TLBMissRatio)
	}
	if res.WalkFraction <= 0 || res.WalkFraction >= 1 {
		t.Fatalf("walk fraction %v", res.WalkFraction)
	}
	// Fig 9 sanity: PL4 requests recorded, and every level's fractions sum
	// to ~1 implicitly via Total.
	if res.Breakdown.Total(4) == 0 || res.Breakdown.Total(1) == 0 {
		t.Fatal("breakdown not recorded")
	}
}

func TestASAPReducesNativeLatency(t *testing.T) {
	p := fastParams()
	base := run(t, Scenario{Workload: tinySpec()}, p)
	p1 := run(t, Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true}}}, p)
	p12 := run(t, Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true}}}, p)
	if p1.AvgWalkLat >= base.AvgWalkLat {
		t.Fatalf("P1 (%v) not below baseline (%v)", p1.AvgWalkLat, base.AvgWalkLat)
	}
	if p12.AvgWalkLat > p1.AvgWalkLat*1.02 {
		t.Fatalf("P1+P2 (%v) worse than P1 (%v)", p12.AvgWalkLat, p1.AvgWalkLat)
	}
	if p12.PrefetchIssued == 0 || p12.PrefetchCovered == 0 {
		t.Fatal("no prefetch activity recorded")
	}
	if p12.RangeHitRate <= 0.5 {
		t.Fatalf("range-register hit rate %v too low", p12.RangeHitRate)
	}
}

func TestColocationIncreasesLatency(t *testing.T) {
	p := fastParams()
	iso := run(t, Scenario{Workload: tinySpec()}, p)
	colo := run(t, Scenario{Workload: tinySpec(), Colocated: true}, p)
	if colo.AvgWalkLat <= iso.AvgWalkLat*1.05 {
		t.Fatalf("colocation did not pressure walks: %v vs %v", colo.AvgWalkLat, iso.AvgWalkLat)
	}
	// ASAP's opportunity grows under colocation (paper §5.1.2).
	asapIso := run(t, Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true}}}, p)
	asapColo := run(t, Scenario{Workload: tinySpec(), Colocated: true, ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true}}}, p)
	redIso := 1 - asapIso.AvgWalkLat/iso.AvgWalkLat
	redColo := 1 - asapColo.AvgWalkLat/colo.AvgWalkLat
	if redColo <= redIso {
		t.Fatalf("ASAP reduction under colocation (%v) not above isolation (%v)", redColo, redIso)
	}
}

func TestVirtualizationCostlier(t *testing.T) {
	p := fastParams()
	native := run(t, Scenario{Workload: tinySpec()}, p)
	virt := run(t, Scenario{Workload: tinySpec(), Virtualized: true}, p)
	if virt.AvgWalkLat < native.AvgWalkLat*1.5 {
		t.Fatalf("2D walks (%v) not clearly above native (%v)", virt.AvgWalkLat, native.AvgWalkLat)
	}
}

func TestVirtASAPOrdering(t *testing.T) {
	p := fastParams()
	base := run(t, Scenario{Workload: tinySpec(), Virtualized: true}, p)
	g := run(t, Scenario{Workload: tinySpec(), Virtualized: true,
		ASAP: ASAPConfig{Guest: core.Config{P1: true, P2: true}}}, p)
	gh := run(t, Scenario{Workload: tinySpec(), Virtualized: true,
		ASAP: ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}}, p)
	if !(gh.AvgWalkLat < g.AvgWalkLat && g.AvgWalkLat < base.AvgWalkLat) {
		t.Fatalf("virt ASAP ordering violated: base=%v guest=%v guest+host=%v",
			base.AvgWalkLat, g.AvgWalkLat, gh.AvgWalkLat)
	}
}

func TestHostHugePagesShortenBaseline(t *testing.T) {
	p := fastParams()
	small := run(t, Scenario{Workload: tinySpec(), Virtualized: true}, p)
	huge := run(t, Scenario{Workload: tinySpec(), Virtualized: true, HostHugePages: true}, p)
	if huge.AvgWalkLat >= small.AvgWalkLat {
		t.Fatalf("2MB host pages (%v) not below 4KB host pages (%v)", huge.AvgWalkLat, small.AvgWalkLat)
	}
	// ASAP still helps on top of host large pages (Fig 12).
	asap := run(t, Scenario{Workload: tinySpec(), Virtualized: true, HostHugePages: true,
		ASAP: ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P2: true}}}, p)
	if asap.AvgWalkLat >= huge.AvgWalkLat {
		t.Fatalf("ASAP over 2MB host pages (%v) not below its baseline (%v)", asap.AvgWalkLat, huge.AvgWalkLat)
	}
}

func TestClusteredTLBReducesMPKIWithContiguity(t *testing.T) {
	p := fastParams()
	spec := tinySpec()
	spec.Contig8 = 0.9
	spec.BurstLen = 4 // spatial locality for the coalesced entries to pay off
	conv := run(t, Scenario{Workload: spec}, p)
	clus := run(t, Scenario{Workload: spec, ClusteredTLB: true}, p)
	if clus.MPKI >= conv.MPKI {
		t.Fatalf("clustered TLB MPKI %v not below conventional %v", clus.MPKI, conv.MPKI)
	}
}

func TestClusteredTLBNeedsContiguity(t *testing.T) {
	p := fastParams()
	spec := tinySpec()
	spec.Name = "tiny-nocontig"
	spec.Contig8 = 0
	spec.BurstLen = 4
	conv := run(t, Scenario{Workload: spec}, p)
	clus := run(t, Scenario{Workload: spec, ClusteredTLB: true}, p)
	// Without physical contiguity the clustered TLB coalesces nothing; MPKI
	// reduction must be marginal (paper §2.5's criticism of coalescing).
	if conv.MPKI == 0 {
		t.Fatal("degenerate MPKI")
	}
	if red := 1 - clus.MPKI/conv.MPKI; red > 0.10 {
		t.Fatalf("clustered TLB reduced MPKI by %v without contiguity", red)
	}
}

func TestFiveLevelWalksCostMore(t *testing.T) {
	// A small dataset is fully covered by the PL4 page-walk cache, which
	// hides the extra root level; shrink the PWC so walks actually start at
	// the root (the big-memory regime that motivates §2.6).
	p := fastParams()
	p.PWC.PL4Entries = 1
	p.PWC.PL3Entries = 1
	p.PWC.PL2Entries = 4
	four := run(t, Scenario{Workload: tinySpec()}, p)
	p5 := p
	p5.FiveLevel = true
	five := run(t, Scenario{Workload: tinySpec()}, p5)
	if five.AvgWalkLat <= four.AvgWalkLat {
		t.Fatalf("5-level walk (%v) not above 4-level (%v)", five.AvgWalkLat, four.AvgWalkLat)
	}
	// The 5-level extension of §3.5: P1+P2+P3 prefetching recovers the added
	// level's cost.
	asap5 := run(t, Scenario{Workload: tinySpec(),
		ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true, P3: true}}}, p5)
	if asap5.AvgWalkLat >= five.AvgWalkLat {
		t.Fatalf("5-level ASAP (%v) not below its baseline (%v)", asap5.AvgWalkLat, five.AvgWalkLat)
	}
}

func TestHolesReduceCoverage(t *testing.T) {
	clean := fastParams()
	holey := fastParams()
	holey.HoleProb = 0.5
	sc := Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true}}}
	a := run(t, sc, clean)
	b := run(t, sc, holey)
	ca := float64(a.PrefetchCovered) / float64(a.PrefetchIssued)
	cb := float64(b.PrefetchCovered) / float64(b.PrefetchIssued)
	if cb >= ca {
		t.Fatalf("holes did not reduce prefetch coverage: %v vs %v", cb, ca)
	}
	if b.AvgWalkLat < a.AvgWalkLat {
		t.Fatalf("holey ASAP (%v) beat clean ASAP (%v)", b.AvgWalkLat, a.AvgWalkLat)
	}
}

func TestRangeRegisterCapacity(t *testing.T) {
	// With a single register, only the largest VMA accelerates; the range
	// hit rate must drop against ample registers.
	ample := fastParams()
	scarce := fastParams()
	scarce.RangeRegisters = 1
	sc := Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true}}}
	a := run(t, sc, ample)
	b := run(t, sc, scarce)
	if b.RangeHitRate >= a.RangeHitRate {
		t.Fatalf("1 register hit rate %v not below 16-register %v", b.RangeHitRate, a.RangeHitRate)
	}
}

func TestDeterminism(t *testing.T) {
	p := fastParams()
	sc := Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true}}}
	a := run(t, sc, p)
	b := run(t, sc, p)
	if a.AvgWalkLat != b.AvgWalkLat || a.Walks != b.Walks || a.MPKI != b.MPKI {
		t.Fatalf("runs with identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestScenarioNames(t *testing.T) {
	sc := Scenario{Workload: tinySpec(), Virtualized: true, Colocated: true, HostHugePages: true,
		ASAP: ASAPConfig{Guest: core.Config{P1: true}, Host: core.Config{P2: true}}}
	want := "tiny/virt+colo+2MB/P1g+P2h"
	if got := sc.Name(); got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if (ASAPConfig{}).String() != "baseline" {
		t.Fatal("empty ASAPConfig name")
	}
	if (ASAPConfig{Native: core.Config{P1: true}}).String() != "P1" {
		t.Fatal("native ASAPConfig name")
	}
}

func TestBuildCacheReuse(t *testing.T) {
	ResetBuildCache()
	p := fastParams()
	a1, err := nativeFor(tinySpec(), false, p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := nativeFor(tinySpec(), false, p)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("assembly not memoized")
	}
	ResetBuildCache()
	a3, err := nativeFor(tinySpec(), false, p)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a3 {
		t.Fatal("ResetBuildCache did not drop entries")
	}
}

func TestForRepeat(t *testing.T) {
	p := fastParams()
	if p.ForRepeat(0) != p {
		t.Fatal("repeat 0 must be the base parameter set")
	}
	seen := map[uint64]bool{p.Seed: true}
	for i := 1; i < 8; i++ {
		d := p.ForRepeat(i)
		base := p
		base.Seed = d.Seed
		if d != base {
			t.Fatalf("repeat %d changed more than the seed", i)
		}
		if seen[d.Seed] {
			t.Fatalf("repeat %d reused a seed", i)
		}
		seen[d.Seed] = true
	}
}

func TestRepeatsVary(t *testing.T) {
	// Distinct repeat seeds must actually perturb the measurement — that is
	// the whole point of multi-repeat statistics.
	p := fastParams()
	sc := Scenario{Workload: tinySpec()}
	a := run(t, sc, p.ForRepeat(0))
	b := run(t, sc, p.ForRepeat(1))
	if a.AvgWalkLat == b.AvgWalkLat && a.Walks == b.Walks && a.TLBMissRatio == b.TLBMissRatio {
		t.Fatal("repeats with derived seeds produced identical metrics")
	}
}

func TestAggregate(t *testing.T) {
	a := &Result{Walks: 100, AvgWalkLat: 10, WalkFraction: 0.2, RangeOverflowed: 2, Switches: 10, ShootdownFlushes: 10}
	a.Breakdown.Add(1, 0)
	b := &Result{Walks: 200, AvgWalkLat: 14, WalkFraction: 0.4, RangeOverflowed: 2, Switches: 14, ShootdownFlushes: 14}
	b.Breakdown.Add(1, 0)
	mean, std := Aggregate([]*Result{a, b})
	if mean.Walks != 150 || mean.AvgWalkLat != 12 || mean.RangeOverflowed != 2 {
		t.Fatalf("mean: %+v", mean)
	}
	if mean.Switches != 12 || mean.ShootdownFlushes != 12 {
		t.Fatalf("multi-process counters not aggregated: %+v", mean)
	}
	if d := mean.WalkFraction - 0.3; d > 1e-12 || d < -1e-12 {
		t.Fatalf("mean walk fraction %v", mean.WalkFraction)
	}
	if mean.Breakdown.Total(1) != 2 {
		t.Fatalf("breakdown not pooled: %d", mean.Breakdown.Total(1))
	}
	// Sample std of {10,14} is sqrt(8) ≈ 2.828; of equal values, 0.
	if std.AvgWalkLat < 2.82 || std.AvgWalkLat > 2.84 || std.RangeOverflowed != 0 {
		t.Fatalf("std: %+v", std)
	}
	m1, s1 := Aggregate([]*Result{a})
	if m1.AvgWalkLat != 10 || s1.AvgWalkLat != 0 {
		t.Fatalf("single-result aggregate: %+v / %+v", m1, s1)
	}
}

func TestHostRangeHitRateReported(t *testing.T) {
	// The host-dimension engine's lookups must surface separately: with host
	// ASAP enabled a virtualized run consults it throughout the nested walk.
	p := fastParams()
	r := run(t, Scenario{Workload: tinySpec(), Virtualized: true,
		ASAP: ASAPConfig{Guest: core.Config{P1: true, P2: true}, Host: core.Config{P1: true, P2: true}}}, p)
	if r.HostRangeHitRate <= 0 || r.HostRangeHitRate > 1 {
		t.Fatalf("host range hit rate %v not measured", r.HostRangeHitRate)
	}
	if r.RangeHitRate <= 0 {
		t.Fatalf("guest range hit rate %v not measured", r.RangeHitRate)
	}
	guestOnly := run(t, Scenario{Workload: tinySpec(), Virtualized: true,
		ASAP: ASAPConfig{Guest: core.Config{P1: true, P2: true}}}, p)
	if guestOnly.HostRangeHitRate != 0 {
		t.Fatalf("host hit rate %v without a host engine", guestOnly.HostRangeHitRate)
	}
}

func TestRangeOverflowWindowed(t *testing.T) {
	// RangeOverflowed is a measured-window delta like every other counter.
	// A single-process run installs its whole descriptor file before warmup,
	// so even a starved one-register file must report 0: the old accounting
	// (finish adding cumulative engine.Overflowed()) reported the setup-time
	// drops here and fails this test. Under multi-process scheduling every
	// switch-in restores the incoming descriptor file, so capacity drops
	// recur inside the window and must surface.
	scarce := fastParams()
	scarce.RangeRegisters = 1
	sc := Scenario{Workload: tinySpec(), ASAP: ASAPConfig{Native: core.Config{P1: true}}}
	b := run(t, sc, scarce)
	if b.RangeOverflowed != 0 {
		t.Fatalf("single-process run reported %d pre-window descriptor drops", b.RangeOverflowed)
	}
	multi := scarce
	multi.Processes = 2
	multi.QuantumRefs = 2_000
	r := run(t, sc, multi)
	if r.Switches == 0 {
		t.Fatal("no context switches in the measured window")
	}
	if r.RangeOverflowed == 0 {
		t.Fatal("switch-in descriptor drops not reported")
	}
	ample := run(t, sc, fastParams())
	if ample.RangeOverflowed != 0 {
		t.Fatalf("%d descriptors dropped with ample registers", ample.RangeOverflowed)
	}
}

func TestTable1Shape(t *testing.T) {
	// The headline motivation (Table 1): colocation, virtualization, and
	// both together escalate walk latency monotonically.
	p := fastParams()
	iso := run(t, Scenario{Workload: tinySpec()}, p)
	colo := run(t, Scenario{Workload: tinySpec(), Colocated: true}, p)
	virt := run(t, Scenario{Workload: tinySpec(), Virtualized: true}, p)
	both := run(t, Scenario{Workload: tinySpec(), Virtualized: true, Colocated: true}, p)
	if !(iso.AvgWalkLat < colo.AvgWalkLat && colo.AvgWalkLat < virt.AvgWalkLat && virt.AvgWalkLat < both.AvgWalkLat) {
		t.Fatalf("Table 1 escalation violated: %v / %v / %v / %v",
			iso.AvgWalkLat, colo.AvgWalkLat, virt.AvgWalkLat, both.AvgWalkLat)
	}
}

func TestMultiprocPolicies(t *testing.T) {
	p := fastParams()
	p.WarmupWalks = 2000
	p.MeasureWalks = 2000
	p.Processes = 4
	p.QuantumRefs = 300
	sc := Scenario{Workload: tinySpec()}

	p.FlushOnSwitch = true
	flush := run(t, sc, p)
	p.FlushOnSwitch = false
	asid := run(t, sc, p)

	if flush.Switches == 0 || asid.Switches == 0 {
		t.Fatalf("no switches measured: flush=%d asid=%d", flush.Switches, asid.Switches)
	}
	// Every switch flushes under the untagged policy; tagged retention never
	// invalidates during normal scheduling.
	if flush.ShootdownFlushes != flush.Switches {
		t.Fatalf("flush policy: %d flushes over %d switches", flush.ShootdownFlushes, flush.Switches)
	}
	if asid.ShootdownFlushes != 0 {
		t.Fatalf("ASID policy flushed %d times", asid.ShootdownFlushes)
	}
	// Forced refills make the untagged policy walk more per unit of work.
	if flush.MPKI <= asid.MPKI {
		t.Fatalf("flush MPKI %v not above ASID MPKI %v", flush.MPKI, asid.MPKI)
	}
}

func TestMultiprocDeterministic(t *testing.T) {
	p := fastParams()
	p.WarmupWalks = 1500
	p.MeasureWalks = 1500
	p.Processes = 2
	p.QuantumRefs = 300
	sc := Scenario{Workload: tinySpec()}
	a := run(t, sc, p)
	b := run(t, sc, p)
	if *a != *b {
		t.Fatalf("same cell, different results:\n%+v\n%+v", a, b)
	}
}

func TestMultiprocSingleProcessBypass(t *testing.T) {
	// Processes=1 must take the classic path: identical to Processes=0 in
	// every metric, scheduler and switch machinery untouched.
	sc := Scenario{Workload: tinySpec()}
	p0 := fastParams()
	p0.Processes = 0
	p1 := fastParams()
	p1.Processes = 1
	a := run(t, sc, p0)
	b := run(t, sc, p1)
	a.Scenario, b.Scenario = Scenario{}, Scenario{}
	if *a != *b {
		t.Fatalf("Processes=1 diverged from the single-process path:\n%+v\n%+v", a, b)
	}
	if b.Switches != 0 || b.ShootdownFlushes != 0 {
		t.Fatalf("single-process run reported switch activity: %+v", b)
	}
}

func TestMultiprocVirtualizedRejected(t *testing.T) {
	p := fastParams()
	p.Processes = 2
	if _, err := Run(context.Background(), Scenario{Workload: tinySpec(), Virtualized: true}, p, nil, nil); err == nil {
		t.Fatal("virtualized multi-process run accepted")
	}
}

func TestMultiprocUnknownMixRejected(t *testing.T) {
	p := fastParams()
	p.Processes = 2
	if _, err := Run(context.Background(), Scenario{Workload: tinySpec(), Mix: "nosuch"}, p, nil, nil); err == nil {
		t.Fatal("unknown mix workload accepted")
	}
}

func TestRunRejectsBadCoAccessCycles(t *testing.T) {
	// A zero pacing once made the co-runner's debt +Inf and spun its loop
	// where the ctx poll never ran, and a tiny positive one made every
	// reference's burst enormous. The error must come from validation
	// before anything runs, not from the deadline.
	for _, c := range []float64{0, -18, math.NaN(), math.Inf(1), 1e-6} {
		for _, procs := range []int{1, 2} {
			p := fastParams()
			p.CoAccessCycles = c
			p.Processes = procs
			sc := Scenario{Workload: tinySpec(), Colocated: procs == 1}
			if Validate(sc, p) == nil {
				t.Errorf("CoAccessCycles=%v, Processes=%d: Validate accepted the cell", c, procs)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := Run(ctx, sc, p, nil, nil)
			cancel()
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("CoAccessCycles=%v, Processes=%d: err = %v, want a validation error", c, procs, err)
			}
		}
	}
}

// countingTap counts the processes a run announces and the references it
// consumes. Setups announce each process while building it, so a run
// rejected up front announces none.
type countingTap struct{ begun, refs int }

func (c *countingTap) BeginProcess(int, workload.Spec, *workload.Layout, uint64) error {
	c.begun++
	return nil
}

func (c *countingTap) Ref(int, mem.VirtAddr) { c.refs++ }

// TestMaxRefsTruncationFails pins the end of a synthetic run: MaxRefs set to
// exactly the references a full window consumes still succeeds, one fewer
// fails naming the walks measured, and so does a MaxRefs that ends the run
// inside warmup. No truncated window is reported as a result.
func TestMaxRefsTruncationFails(t *testing.T) {
	ctx := context.Background()
	sc, p := Scenario{Workload: tinySpec()}, fastParams()
	var tap countingTap
	full, err := Run(ctx, sc, p, &tap, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxRefs = tap.refs
	res, err := Run(ctx, sc, p, nil, nil)
	if err != nil {
		t.Fatalf("MaxRefs = the %d references a full window takes: %v", tap.refs, err)
	}
	if *res != *full {
		t.Fatalf("MaxRefs = %d changed the result", tap.refs)
	}
	for _, tc := range []struct {
		maxRefs  int
		measured int
	}{
		{tap.refs - 1, p.MeasureWalks - 1},
		{1000, 0}, // ends inside warmup
	} {
		p.MaxRefs = tc.maxRefs
		_, err := Run(ctx, sc, p, nil, nil)
		want := fmt.Sprintf("%d of %d measured walks", tc.measured, p.MeasureWalks)
		if err == nil || !strings.Contains(err.Error(), "MaxRefs") || !strings.Contains(err.Error(), want) {
			t.Errorf("MaxRefs = %d: err = %v, want an error naming MaxRefs and %q", tc.maxRefs, err, want)
		}
	}
}

func builtAssemblies() int {
	buildMu.Lock()
	defer buildMu.Unlock()
	return len(buildCache)
}

// TestValidate runs one cell per Validate rule through Run and requires
// Validate's error before anything is built: no assembly in the build cache
// and no process announced to the tap.
func TestValidate(t *testing.T) {
	ctx := context.Background()
	// Control: a valid cell builds and announces, so the checks can fail.
	ResetBuildCache()
	var tap countingTap
	if _, err := Run(ctx, Scenario{Workload: tinySpec()}, fastParams(), &tap, nil); err != nil {
		t.Fatal(err)
	}
	if tap.begun != 1 || builtAssemblies() == 0 {
		t.Fatalf("valid cell: %d processes announced, %d assemblies built", tap.begun, builtAssemblies())
	}

	// Every shipped spec passes the spec caps, colocated at the default
	// pacing.
	for _, w := range workload.Specs() {
		if err := Validate(Scenario{Workload: w, Colocated: true}, DefaultParams()); err != nil {
			t.Errorf("shipped spec %s: %v", w.Name, err)
		}
	}

	p1 := core.Config{P1: true}
	procs := func(n int) func(*Params) { return func(p *Params) { p.Processes = n } }
	cpi := func(c float64) func(*Params) { return func(p *Params) { p.CPIBase = c } }
	stall := func(c float64) func(*workload.Spec) { return func(w *workload.Spec) { w.DataStallCycles = c } }
	instr := func(n float64) func(*workload.Spec) { return func(w *workload.Spec) { w.InstrPerRef = n } }
	for _, tc := range []struct {
		name string
		sc   Scenario
		mut  func(*Params)
		spec func(*workload.Spec)
	}{
		{"unknown scheme", Scenario{Scheme: "bogus"}, nil, nil},
		{"rival scheme virtualized", Scenario{Scheme: "victima", Virtualized: true}, nil, nil},
		{"rival scheme with ASAP", Scenario{Scheme: "revelator", ASAP: ASAPConfig{Native: p1}}, nil, nil},
		{"virtualized native ASAP", Scenario{Virtualized: true, ASAP: ASAPConfig{Native: p1}}, nil, nil},
		{"guest without virt", Scenario{ASAP: ASAPConfig{Guest: p1}}, nil, nil},
		{"host without virt", Scenario{ASAP: ASAPConfig{Host: p1}}, nil, nil},
		{"huge pages without virt", Scenario{HostHugePages: true}, nil, nil},
		{"trace virtualized", Scenario{Trace: "deadbeefdeadbeef", Virtualized: true}, nil, nil},
		{"trace multi-process", Scenario{Trace: "deadbeefdeadbeef"}, procs(2), nil},
		{"virtualized multi-process", Scenario{Virtualized: true}, procs(2), nil},
		{"mix single-process", Scenario{Mix: "mcf"}, nil, nil},
		{"zero quantum", Scenario{}, func(p *Params) { p.Processes, p.QuantumRefs = 2, 0 }, nil},
		{"colocated zero pacing", Scenario{Colocated: true}, func(p *Params) { p.CoAccessCycles = 0 }, nil},
		{"multi-process infinite pacing", Scenario{}, func(p *Params) { p.Processes, p.CoAccessCycles = 2, math.Inf(1) }, nil},
		{"hole probability above 1", Scenario{}, func(p *Params) { p.HoleProb = 1.5 }, nil},
		{"negative hole probability", Scenario{}, func(p *Params) { p.HoleProb = -0.1 }, nil},
		{"NaN hole probability", Scenario{}, func(p *Params) { p.HoleProb = math.NaN() }, nil},
		{"colocated pacing below 1", Scenario{Colocated: true}, func(p *Params) { p.CoAccessCycles = 0.5 }, nil},
		{"multi-process tiny pacing", Scenario{}, func(p *Params) { p.Processes, p.CoAccessCycles = 2, 1e-6 }, nil},
		{"zero CPI", Scenario{}, cpi(0), nil},
		{"negative CPI", Scenario{}, cpi(-0.6), nil},
		{"NaN CPI", Scenario{}, cpi(math.NaN()), nil},
		{"infinite CPI", Scenario{}, cpi(math.Inf(1)), nil},
		{"CPI above cap", Scenario{}, cpi(MaxCPIBase * 2), nil},
		{"negative data stall", Scenario{}, nil, stall(-1)},
		{"NaN data stall", Scenario{}, nil, stall(math.NaN())},
		{"infinite data stall", Scenario{}, nil, stall(math.Inf(1))},
		{"data stall above cap", Scenario{Colocated: true}, nil, stall(1e9)},
		{"negative instructions per ref", Scenario{}, nil, instr(-1)},
		{"NaN instructions per ref", Scenario{}, nil, instr(math.NaN())},
		{"infinite instructions per ref", Scenario{}, nil, instr(math.Inf(1))},
		{"instructions per ref above cap", Scenario{}, nil, instr(MaxInstrPerRef + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ResetBuildCache()
			sc, p := tc.sc, fastParams()
			sc.Workload = tinySpec()
			if tc.mut != nil {
				tc.mut(&p)
			}
			if tc.spec != nil {
				tc.spec(&sc.Workload)
			}
			want := Validate(sc, p)
			if want == nil {
				t.Fatal("Validate accepted the cell")
			}
			var tap countingTap
			if _, err := Run(ctx, sc, p, &tap, nil); err == nil || err.Error() != want.Error() {
				t.Fatalf("Run: err = %v, want Validate's %q", err, want)
			}
			if tap.begun != 0 || builtAssemblies() != 0 {
				t.Fatalf("rejected cell built: %d processes announced, %d assemblies", tap.begun, builtAssemblies())
			}
		})
	}
}

func TestCoTrafficMatchesPerAccessLoop(t *testing.T) {
	// coTraffic must be exactly the per-request loops it replaced: the SMT
	// debt loop and the quantum replay's count loop, request for request and
	// down to the carried debt's bits.
	p := fastParams()
	hRef, hBurst := cache.NewHierarchy(p.Cache), cache.NewHierarchy(p.Cache)
	newCo := func(seed uint64) *workload.CoRunner {
		return workload.NewCoRunner(coRunnerBase.Addr(), 1<<26, seed)
	}
	coRef, coBurst := newCo(1), newCo(1)
	dataRef, dataBurst := newCo(2), newCo(2)
	traffic := coTraffic{h: hBurst, every: p.CoAccessCycles}
	var debt float64
	r := rng.New(3)
	for i := 0; i < 20_000; i++ {
		if r.Bool(0.01) {
			n := r.Intn(3 * coChunk)
			for j := 0; j < n; j++ {
				hRef.Access(dataRef.Next())
			}
			traffic.burst(dataBurst, n)
			continue
		}
		cycles := 30 + 4*p.CPIBase
		if r.Bool(0.1) {
			cycles += float64(r.Intn(600)) // a walk
		}
		for debt += cycles / p.CoAccessCycles; debt >= 1; debt-- {
			hRef.Access(coRef.Next())
		}
		traffic.smt(coBurst, cycles)
		if math.Float64bits(debt) != math.Float64bits(traffic.debt) {
			t.Fatalf("step %d: debt %v, per-request loop left %v", i, traffic.debt, debt)
		}
	}
	for s := cache.ServedL1; s <= cache.ServedMem; s++ {
		if got, want := hBurst.ServedCount(s), hRef.ServedCount(s); got != want {
			t.Errorf("served by %v: %d, per-access loop %d", s, got, want)
		}
	}
}
