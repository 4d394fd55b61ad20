package walker

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/vma"
)

// rig bundles a small native setup: a heap VMA with its page table,
// optionally placed in ASAP sorted regions.
type rig struct {
	h      *cache.Hierarchy
	pwc    *pwc.PWC
	table  *pt.Table
	area   *vma.VMA
	engine *core.Engine
	alloc  *pt.SortedAlloc
}

// newRig returns a rig with a 64 MiB heap.
func newRig(t *testing.T, cfg core.Config, holeProb float64) *rig {
	t.Helper()
	return newRigPages(t, cfg, holeProb, 32*mem.NodeSpan)
}

// newRigPages returns a rig whose heap has the given number of pages.
func newRigPages(t testing.TB, cfg core.Config, holeProb float64, pages uint64) *rig {
	t.Helper()
	r := &rig{
		h:    cache.NewHierarchy(cache.DefaultConfig()),
		pwc:  pwc.New(pwc.DefaultConfig()),
		area: &vma.VMA{Start: mem.FromVPN(1 << 20), End: mem.FromVPN(1<<20 + pages), Kind: vma.Heap, Name: "heap"},
	}
	setup, err := core.SetupVMA(r.area, []int{1, 2}, mem.NewBump(1<<22, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	r.alloc = pt.NewSortedAlloc(pt.NewScatterAlloc(1<<26, 1<<20, 3), holeProb, 4)
	for _, reg := range setup.Regions {
		r.alloc.AddRegion(reg)
	}
	r.table, err = pt.New(pt.Config{Levels: 4, LeafLevel: 1}, r.alloc, false)
	if err != nil {
		t.Fatal(err)
	}
	r.table.PopulateRange(r.area.Start, r.area.End)
	if cfg.Enabled() {
		r.engine = core.NewEngine(16, cfg)
		r.engine.Install(setup.Descriptor)
	}
	return r
}

func (r *rig) walker() *Walker {
	return &Walker{H: r.h, PWC: r.pwc, ASAP: r.engine}
}

func TestBaselineColdWalk(t *testing.T) {
	r := newRig(t, core.Config{}, 0)
	w := r.walker()
	var res Result
	w.Walk(0, r.table, r.area.Start, &res)
	// Cold: PWC lookup (2) + 4 accesses all served by memory (191 each).
	want := 2 + 4*191
	if res.Cycles != want {
		t.Fatalf("cold walk cycles = %d, want %d", res.Cycles, want)
	}
	if !res.Present || res.Huge {
		t.Fatalf("present/huge = %v/%v", res.Present, res.Huge)
	}
	if res.N != 4 {
		t.Fatalf("accesses = %d", res.N)
	}
	for i, a := range res.Accesses[:res.N] {
		if a.Served != cache.ServedMem || a.Dim != DimNative {
			t.Fatalf("access %d: %+v", i, a)
		}
	}
	// Walk order is root-first.
	if res.Accesses[0].Level != 4 || res.Accesses[3].Level != 1 {
		t.Fatalf("walk order: %+v", res.Accesses[:res.N])
	}
}

func TestWarmWalkUsesPWCAndCaches(t *testing.T) {
	r := newRig(t, core.Config{}, 0)
	w := r.walker()
	var res Result
	w.Walk(0, r.table, r.area.Start, &res)
	w.Walk(0, r.table, r.area.Start, &res)
	// Second identical walk: PWC caches the PL2 entry, so the walker resumes
	// at PL1, which is L1-resident. Cost = 2 (PWC) + 4 (L1).
	if res.Cycles != 6 {
		t.Fatalf("warm walk cycles = %d, want 6", res.Cycles)
	}
	pwcServed := 0
	for _, a := range res.Accesses[:res.N] {
		if a.Served == cache.ServedPWC {
			pwcServed++
		}
	}
	if pwcServed != 3 {
		t.Fatalf("PWC-served levels = %d, want 3 (PL4, PL3, PL2)", pwcServed)
	}
}

func TestASAPColdWalkOverlap(t *testing.T) {
	r := newRig(t, core.Config{P1: true, P2: true}, 0)
	w := r.walker()
	var res Result
	w.Walk(0, r.table, r.area.Start, &res)
	// Prefetches to PL1/PL2 launch at t=0, completing at 191. The walker
	// reaches PL2 at t = 2 + 191 + 191 = 384 > 191, so both deep accesses
	// cost one L1 hit: total = 2 + 191 + 191 + 4 + 4.
	want := 2 + 191 + 191 + 4 + 4
	if res.Cycles != want {
		t.Fatalf("ASAP cold walk = %d, want %d", res.Cycles, want)
	}
	if res.PrefetchIssued != 2 || res.PrefetchCovered != 2 {
		t.Fatalf("prefetch issued/covered = %d/%d", res.PrefetchIssued, res.PrefetchCovered)
	}
	covered := 0
	for _, a := range res.Accesses[:res.N] {
		if a.Prefetched {
			covered++
			if a.Level > 2 {
				t.Fatalf("prefetch covered level %d", a.Level)
			}
		}
	}
	if covered != 2 {
		t.Fatalf("covered accesses = %d", covered)
	}
}

func TestASAPPartialOverlapMergesInFlight(t *testing.T) {
	// Warm the upper levels so the walker arrives at PL1 before the prefetch
	// completes; the cost must be the remaining prefetch time, not a full
	// memory access and not a free L1 hit.
	r := newRig(t, core.Config{P1: true}, 0)
	w := r.walker()
	var res Result
	va := r.area.Start
	w.Walk(0, r.table, va, &res) // cold walk warms PL4..PL2 + the PWC
	// Same 2 MB span, different page: the PWC now resumes directly at PL1
	// (t=2), but the target PTE sits in a different, cold cache line, so the
	// prefetch (completing at 191) is only partially overlapped.
	va2 := r.area.Start + mem.VirtAddr(32*mem.PageSize)
	w.Walk(0, r.table, va2, &res)
	var pl1 *Access
	for i := range res.Accesses[:res.N] {
		if res.Accesses[i].Level == 1 {
			pl1 = &res.Accesses[i]
		}
	}
	if pl1 == nil || !pl1.Prefetched {
		t.Fatalf("PL1 access not prefetch-covered: %+v", res.Accesses[:res.N])
	}
	if pl1.Cycles >= 191 || pl1.Cycles <= 4 {
		t.Fatalf("PL1 partial overlap cost = %d, want in (4, 191)", pl1.Cycles)
	}
	if res.Cycles >= 2+191+191 {
		t.Fatalf("partially covered walk (%d cycles) no better than baseline", res.Cycles)
	}
}

func TestASAPHolesNotAccelerated(t *testing.T) {
	r := newRig(t, core.Config{P1: true, P2: true}, 1.0) // every node displaced
	w := r.walker()
	var res Result
	w.Walk(0, r.table, r.area.Start, &res)
	if res.PrefetchCovered != 0 {
		t.Fatalf("hole walk covered %d accesses", res.PrefetchCovered)
	}
	// Prefetches still issue (the engine cannot know about holes) but the
	// walk runs at baseline speed.
	if res.PrefetchIssued != 2 {
		t.Fatalf("prefetch issued = %d", res.PrefetchIssued)
	}
	if res.Cycles != 2+4*191 {
		t.Fatalf("hole walk cycles = %d, want baseline %d", res.Cycles, 2+4*191)
	}
}

func TestASAPOutsideRangeRegisters(t *testing.T) {
	r := newRig(t, core.Config{P1: true, P2: true}, 0)
	// Map another VMA outside the registered range.
	outside := mem.FromVPN(1 << 24)
	r.table.PopulateRange(outside, outside+mem.VirtAddr(mem.HugeSize))
	w := r.walker()
	var res Result
	w.Walk(0, r.table, outside, &res)
	if res.PrefetchIssued != 0 || res.PrefetchCovered != 0 {
		t.Fatalf("prefetch outside range registers: %d/%d", res.PrefetchIssued, res.PrefetchCovered)
	}
}

func TestASAPMSHRLimitDropsPrefetches(t *testing.T) {
	r := newRig(t, core.Config{P1: true, P2: true}, 0)
	w := r.walker()
	w.MSHR = cache.NewMSHRFile(1)
	var res Result
	w.Walk(0, r.table, r.area.Start, &res)
	if res.PrefetchIssued != 1 {
		t.Fatalf("issued %d prefetches with 1 MSHR", res.PrefetchIssued)
	}
	if w.MSHR.Dropped() != 1 {
		t.Fatalf("dropped = %d", w.MSHR.Dropped())
	}
}

func TestWalkFaultStillWalks(t *testing.T) {
	// Paper §3.7.1: a walk that ends in a fault performs its accesses (and
	// ASAP prefetches still issue, accelerating fault detection).
	r := newRig(t, core.Config{P1: true, P2: true}, 0)
	w := r.walker()
	var res Result
	// An address in the registered VMA range... but unmapped: extend the VMA
	// view by walking one page past the populated range while still inside
	// the descriptor? The rig populates the whole VMA, so probe an address
	// in a neighbouring span that shares the PL4/PL3 path but has no PL2
	// entry.
	unmapped := r.area.End + mem.VirtAddr(mem.HugeSize)
	w.Walk(0, r.table, unmapped, &res)
	if res.Present {
		t.Fatal("unmapped address reported present")
	}
	if res.N == 0 || res.Cycles == 0 {
		t.Fatal("faulting walk performed no accesses")
	}
}

func TestFiveLevelWalk(t *testing.T) {
	alloc := pt.NewScatterAlloc(0, 1<<24, 9)
	table, err := pt.New(pt.Config{Levels: 5, LeafLevel: 1}, alloc, false)
	if err != nil {
		t.Fatal(err)
	}
	va := mem.FromVPN(12345)
	table.EnsurePage(va)
	w := &Walker{H: cache.NewHierarchy(cache.DefaultConfig()), PWC: pwc.New(pwc.DefaultConfig())}
	var res Result
	w.Walk(0, table, va, &res)
	if res.N != 5 {
		t.Fatalf("5-level walk accesses = %d", res.N)
	}
	if res.Cycles != 2+5*191 {
		t.Fatalf("5-level cold walk = %d, want %d", res.Cycles, 2+5*191)
	}
}

func TestHugePageWalkStopsAtPL2(t *testing.T) {
	r := newRig(t, core.Config{}, 0)
	hugeVA := mem.VirtAddr(uint64(40) << pt.SpanShift(1))
	r.table.EnsureHuge(hugeVA)
	w := r.walker()
	var res Result
	w.Walk(0, r.table, hugeVA+5, &res)
	if !res.Present || !res.Huge {
		t.Fatalf("huge walk present/huge = %v/%v", res.Present, res.Huge)
	}
	if res.N != 3 {
		t.Fatalf("huge walk accesses = %d, want 3", res.N)
	}
}

func TestASAPNeverChangesOutcome(t *testing.T) {
	// Correctness guarantee (paper §3.1): with and without ASAP, the walk
	// returns identical translations — only the timing differs.
	base := newRig(t, core.Config{}, 0)
	asap := newRig(t, core.Config{P1: true, P2: true}, 0)
	wb, wa := base.walker(), asap.walker()
	var rb, ra Result
	for vpn := uint64(0); vpn < 32*mem.NodeSpan; vpn += 97 {
		va := base.area.Start + mem.FromVPN(vpn)
		wb.Walk(0, base.table, va, &rb)
		wa.Walk(0, asap.table, va, &ra)
		if rb.Present != ra.Present || rb.Huge != ra.Huge {
			t.Fatalf("outcome diverged at vpn %d", vpn)
		}
		if ra.Cycles > rb.Cycles {
			t.Fatalf("ASAP walk slower at vpn %d: %d > %d", vpn, ra.Cycles, rb.Cycles)
		}
	}
}

func TestDimString(t *testing.T) {
	if DimNative.String() != "native" || DimGuest.String() != "guest" || DimHost.String() != "host" {
		t.Fatal("Dim names wrong")
	}
}
