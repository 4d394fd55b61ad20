package core

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/vma"
)

func TestConfigString(t *testing.T) {
	cases := map[string]Config{
		"baseline": {},
		"P1":       {P1: true},
		"P1+P2":    {P1: true, P2: true},
		"P2":       {P2: true},
		"P1+P2+P3": {P1: true, P2: true, P3: true},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", cfg, got, want)
		}
	}
}

func TestDescriptorTargetMatchesPageTable(t *testing.T) {
	// The defining correctness property of ASAP: the base-plus-offset
	// computation must land exactly on the entry the walker will read, for
	// every address in the VMA, when the PT allocator honours the regions.
	area := &vma.VMA{Start: mem.FromVPN(1000), End: mem.FromVPN(1000 + 64*mem.NodeSpan), Kind: vma.Heap, Name: "heap"}
	src := mem.NewBump(1<<20, 1<<20)
	setup, err := SetupVMA(area, []int{1, 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	alloc := pt.NewSortedAlloc(pt.NewScatterAlloc(1<<24, 1<<20, 1), 0, 2)
	for _, r := range setup.Regions {
		alloc.AddRegion(r)
	}
	table, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1}, alloc, false)
	if err != nil {
		t.Fatal(err)
	}
	table.PopulateRange(area.Start, area.End)

	f := func(raw uint64) bool {
		va := area.Start + mem.VirtAddr(raw%area.Bytes())
		wr := table.Walk(va)
		if !wr.Present {
			return false
		}
		for _, e := range wr.Entries[:wr.N] {
			if e.Level > 2 {
				continue
			}
			got, ok := setup.Descriptor.TargetAddr(e.Level, va)
			if !ok || got != e.EntryAddr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTargetAddrSortedness(t *testing.T) {
	// Paper footnote 1: VPN X < VPN Y implies the PT entry for X sits at a
	// lower physical address than the entry for Y, per level.
	d := &Descriptor{Start: mem.FromVPN(512), End: mem.FromVPN(512 + 100*mem.NodeSpan)}
	d.Base[1], d.Has[1] = mem.PhysAddr(1<<30), true
	d.Base[2], d.Has[2] = mem.PhysAddr(1<<31), true
	f := func(a, b uint64) bool {
		x := d.Start + mem.VirtAddr(a%uint64(d.End-d.Start))
		y := d.Start + mem.VirtAddr(b%uint64(d.End-d.Start))
		if x > y {
			x, y = y, x
		}
		for _, l := range []int{1, 2} {
			ax, _ := d.TargetAddr(l, x)
			ay, _ := d.TargetAddr(l, y)
			if ax > ay {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTargetAddrUnconfiguredLevel(t *testing.T) {
	d := &Descriptor{Start: 0, End: mem.VirtAddr(mem.GiB)}
	d.Base[1], d.Has[1] = 4096, true
	if _, ok := d.TargetAddr(2, 0); ok {
		t.Fatal("level 2 target computed without a region")
	}
	if _, ok := d.TargetAddr(0, 0); ok {
		t.Fatal("level 0 accepted")
	}
	if _, ok := d.TargetAddr(6, 0); ok {
		t.Fatal("level 6 accepted")
	}
}

func TestEngineCapacity(t *testing.T) {
	e := NewEngine(2, Config{P1: true})
	d1 := &Descriptor{Start: 0, End: mem.PageSize}
	d2 := &Descriptor{Start: 2 * mem.PageSize, End: 3 * mem.PageSize}
	d3 := &Descriptor{Start: 4 * mem.PageSize, End: 5 * mem.PageSize}
	if !e.Install(d1) || !e.Install(d2) {
		t.Fatal("install within capacity failed")
	}
	if e.Install(d3) {
		t.Fatal("install beyond capacity succeeded")
	}
	if e.Overflowed() != 1 {
		t.Fatalf("Overflowed = %d", e.Overflowed())
	}
	if e.Capacity() != 2 {
		t.Fatalf("Capacity = %d", e.Capacity())
	}
}

func TestEngineLookupAndTargets(t *testing.T) {
	e := NewEngine(4, Config{P1: true, P2: true})
	d := &Descriptor{Start: mem.FromVPN(0), End: mem.FromVPN(10 * mem.NodeSpan)}
	d.Base[1], d.Has[1] = mem.PhysAddr(1<<30), true
	d.Base[2], d.Has[2] = mem.PhysAddr(1<<31), true
	e.Install(d)

	if e.Lookup(mem.FromVPN(5)) != d {
		t.Fatal("lookup inside VMA missed")
	}
	if e.Lookup(mem.FromVPN(20*mem.NodeSpan)) != nil {
		t.Fatal("lookup outside VMA hit")
	}
	ts := e.Targets(mem.FromVPN(5), nil)
	if len(ts) != 2 {
		t.Fatalf("targets = %v", ts)
	}
	if ts[0].Level != 1 || ts[1].Level != 2 {
		t.Fatalf("target levels = %v", ts)
	}
	// Outside range: no targets.
	if ts := e.Targets(mem.FromVPN(20*mem.NodeSpan), nil); len(ts) != 0 {
		t.Fatalf("out-of-range targets = %v", ts)
	}
	if e.RangeHitRate() <= 0 || e.RangeHitRate() >= 1 {
		t.Fatalf("RangeHitRate = %v", e.RangeHitRate())
	}
}

func TestTargetsDoesNotAllocate(t *testing.T) {
	e := NewEngine(4, Config{P1: true, P2: true, P3: true})
	d := &Descriptor{Start: mem.FromVPN(0), End: mem.FromVPN(10 * mem.NodeSpan)}
	for l := 1; l <= 3; l++ {
		d.Base[l], d.Has[l] = mem.PhysAddr(l)<<30, true
	}
	e.Install(d)
	buf := make([]Target, 0, 3)
	if n := testing.AllocsPerRun(100, func() { buf = e.Targets(mem.FromVPN(5), buf[:0]) }); n != 0 {
		t.Fatalf("Targets allocated %v times per call, want 0", n)
	}
	if len(buf) != 3 || buf[0].Level != 1 || buf[1].Level != 2 || buf[2].Level != 3 {
		t.Fatalf("targets = %v, want levels 1, 2, 3", buf)
	}
}

func TestEngineDisabled(t *testing.T) {
	e := NewEngine(1, Config{})
	d := &Descriptor{Start: 0, End: mem.VirtAddr(mem.GiB)}
	d.Base[1], d.Has[1] = 4096, true
	e.Install(d)
	if ts := e.Targets(0, nil); len(ts) != 0 {
		t.Fatal("disabled engine produced targets")
	}
}

func TestEngineZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine(0) did not panic")
		}
	}()
	NewEngine(0, Config{P1: true})
}

func TestSetupVMAFrames(t *testing.T) {
	// 1 GiB VMA: PL1 needs 512 node frames, PL2 needs 1.
	area := &vma.VMA{Start: 0, End: mem.VirtAddr(mem.GiB), Kind: vma.Heap, Name: "heap"}
	src := mem.NewBump(0, 1<<20)
	setup, err := SetupVMA(area, []int{1, 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	if setup.Frames != 513 {
		t.Fatalf("Frames = %d, want 513", setup.Frames)
	}
	if len(setup.Regions) != 2 {
		t.Fatalf("regions = %d", len(setup.Regions))
	}
	if !setup.Descriptor.Has[1] || !setup.Descriptor.Has[2] {
		t.Fatal("descriptor levels missing")
	}
	if RegionFootprint(area, []int{1, 2}) != 513*mem.PageSize {
		t.Fatalf("RegionFootprint = %d", RegionFootprint(area, []int{1, 2}))
	}
}

func TestSetupVMACostMatchesPaper(t *testing.T) {
	// Paper §3.3: for a 100 GB dataset, PL2 requires ~400 KB and PL1 ~200 MB,
	// i.e. ~0.2% of the dataset.
	area := &vma.VMA{Start: 0, End: mem.VirtAddr(100 * mem.GiB), Kind: vma.Heap, Name: "heap"}
	pl1 := RegionFootprint(area, []int{1})
	pl2 := RegionFootprint(area, []int{2})
	if pl1 != 200*mem.MiB {
		t.Fatalf("PL1 footprint = %d MiB, want 200", pl1/mem.MiB)
	}
	if pl2 != 400*mem.KiB {
		t.Fatalf("PL2 footprint = %d KiB, want 400", pl2/mem.KiB)
	}
	total := float64(pl1+pl2) / float64(area.Bytes())
	if total > 0.0021 {
		t.Fatalf("region cost fraction = %v, want ≤ 0.2%%", total)
	}
}

func TestSetupVMAErrors(t *testing.T) {
	area := &vma.VMA{Start: 0, End: mem.VirtAddr(mem.GiB), Kind: vma.Heap, Name: "heap"}
	if _, err := SetupVMA(area, nil, mem.NewBump(0, 1<<20)); err == nil {
		t.Fatal("no levels accepted")
	}
	if _, err := SetupVMA(area, []int{7}, mem.NewBump(0, 1<<20)); err == nil {
		t.Fatal("invalid level accepted")
	}
	if _, err := SetupVMA(area, []int{1}, mem.NewBump(0, 4)); err == nil {
		t.Fatal("exhausted reserver accepted")
	}
}

func TestEngineSwap(t *testing.T) {
	e := NewEngine(2, Config{P1: true})
	a := &Descriptor{Start: 0, End: 0x1000}
	b := &Descriptor{Start: 0x2000, End: 0x3000}
	c := &Descriptor{Start: 0x4000, End: 0x5000}
	if moved := e.Swap([]*Descriptor{a, b, c}); moved != 2 {
		t.Fatalf("restore into empty file moved %d registers, want 2", moved)
	}
	if e.Overflowed() != 1 {
		t.Fatalf("capacity drop not counted: %d", e.Overflowed())
	}
	if e.Lookup(0x2800) != b {
		t.Fatal("restored descriptor not resident")
	}
	// Swapping in a one-descriptor file saves 2 and restores 1.
	if moved := e.Swap([]*Descriptor{c}); moved != 3 {
		t.Fatalf("swap moved %d registers, want 3", moved)
	}
	if e.Lookup(0x2800) != nil {
		t.Fatal("outgoing descriptor survived the swap")
	}
	if e.Lookup(0x4800) != c {
		t.Fatal("incoming descriptor missing after swap")
	}
	// Overflow keeps accumulating across swaps: the same file re-restored
	// re-drops its excess.
	e.Swap([]*Descriptor{a, b, c})
	if e.Overflowed() != 2 {
		t.Fatalf("cumulative overflow = %d, want 2", e.Overflowed())
	}
}
