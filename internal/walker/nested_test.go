package walker

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/virt"
	"repro/internal/vma"
)

// nestedRig assembles a small virtualized setup: a guest with a heap, its
// guest PT placed in guest-physical frames, an EPT over 1 GiB of guest RAM,
// and optional ASAP in both dimensions.
type nestedRig struct {
	h      *cache.Hierarchy
	m      *virt.Machine
	area   *vma.VMA
	gASAP  *core.Engine
	hASAP  *core.Engine
	vpnGPA func(vpn uint64) mem.PhysAddr
}

// newNestedRig returns a nested rig whose guest has a 64 MiB heap.
func newNestedRig(t *testing.T, gCfg, hCfg core.Config, hostHuge bool) *nestedRig {
	t.Helper()
	return newNestedRigPages(t, gCfg, hCfg, hostHuge, 32*mem.NodeSpan)
}

// newNestedRigPages returns a nested rig whose guest heap has the given
// number of pages.
func newNestedRigPages(t testing.TB, gCfg, hCfg core.Config, hostHuge bool, pages uint64) *nestedRig {
	t.Helper()
	r := &nestedRig{
		h:    cache.NewHierarchy(cache.DefaultConfig()),
		area: &vma.VMA{Start: mem.FromVPN(1 << 20), End: mem.FromVPN(1<<20 + pages), Kind: vma.Heap, Name: "heap"},
	}
	const guestFrames = uint64(1) << 18 // 1 GiB of guest RAM
	gmap := virt.NewGPAMap(1<<24, 1<<22, hostHuge, 42)

	// Guest PT: nodes in guest-physical frames from a bump region at the top
	// of guest RAM (kept simple; scattering guest PT frames adds nothing for
	// these unit tests).
	guestPTBase := mem.Frame(guestFrames - (1 << 14))
	var guestAlloc pt.Allocator = pt.NewScatterAlloc(guestPTBase, 1<<14, 7)
	if gCfg.Enabled() {
		sorted := pt.NewSortedAlloc(guestAlloc, 0, 8)
		setup, err := core.SetupVMA(r.area, gCfg.Levels(), mem.NewBump(guestPTBase-(1<<14), 1<<14))
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range setup.Regions {
			sorted.AddRegion(reg)
			// Pin the region machine-contiguously and expose machine bases in
			// the descriptor (paper §3.6: contiguity in both physical spaces).
			mbase := mem.Frame(1<<23) + mem.Frame(uint64(reg.Base))
			if err := gmap.Pin(uint64(reg.Base), pt.NodesFor(reg.Level, reg.VAStart, reg.VAEnd), mbase); err != nil {
				t.Fatal(err)
			}
			setup.Descriptor.Base[reg.Level] = mbase.Addr()
		}
		guestAlloc = sorted
		r.gASAP = core.NewEngine(16, gCfg)
		r.gASAP.Install(setup.Descriptor)
	}
	guestPT, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1}, guestAlloc, false)
	if err != nil {
		t.Fatal(err)
	}
	guestPT.PopulateRange(r.area.Start, r.area.End)

	// Host EPT over guest-physical space, nodes in machine frames.
	var hostAlloc pt.Allocator = pt.NewScatterAlloc(1<<22, 1<<20, 9)
	guestRAM := &vma.VMA{Start: 0, End: mem.VirtAddr(guestFrames * mem.PageSize), Kind: vma.GuestRAM, Name: "vm"}
	if hCfg.Enabled() {
		sorted := pt.NewSortedAlloc(hostAlloc, 0, 10)
		setup, err := core.SetupVMA(guestRAM, hCfg.Levels(), mem.NewBump(1<<21, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range setup.Regions {
			sorted.AddRegion(reg)
		}
		hostAlloc = sorted
		r.hASAP = core.NewEngine(4, hCfg)
		r.hASAP.Install(setup.Descriptor)
	}
	hostPT, err := pt.New(virt.EPTConfig(hostHuge), hostAlloc, false)
	if err != nil {
		t.Fatal(err)
	}
	hostPT.PopulateRange(0, guestRAM.End)

	r.m = &virt.Machine{GuestPT: guestPT, HostPT: hostPT, Map: gmap}
	r.vpnGPA = func(vpn uint64) mem.PhysAddr {
		return mem.PhysAddr((vpn % (guestFrames / 2)) * mem.PageSize)
	}
	return r
}

func (r *nestedRig) walker() *Nested {
	return &Nested{
		H:         r.h,
		GuestPWC:  pwc.New(pwc.DefaultConfig()),
		HostPWC:   pwc.New(pwc.DefaultConfig()),
		GuestASAP: r.gASAP,
		HostASAP:  r.hASAP,
		GuestPT:   r.m.GuestPT,
		HostPT:    r.m.HostPT,
		Translate: r.m.Map.Translate,
	}
}

func (r *nestedRig) dataGPA(va mem.VirtAddr) mem.PhysAddr {
	return r.vpnGPA(va.VPN()) + mem.PhysAddr(va.PageOffset())
}

func TestNestedColdWalkShape(t *testing.T) {
	r := newNestedRig(t, core.Config{}, core.Config{}, false)
	w := r.walker()
	var res Result
	va := r.area.Start
	w.Walk(0, va, r.dataGPA(va), &res)
	if !res.Present {
		t.Fatal("mapped guest page absent")
	}
	// The 2D walk performs up to 24 memory accesses (paper Fig 7); with PWC
	// inserts during the walk some later host levels hit, so the bound is
	// 12..24 real accesses.
	real := 0
	guestAcc, hostAcc := 0, 0
	for _, a := range res.Accesses[:res.N] {
		if a.Served == cache.ServedPWC {
			continue
		}
		real++
		switch a.Dim {
		case DimGuest:
			guestAcc++
		case DimHost:
			hostAcc++
		default:
			t.Fatalf("native access in a 2D walk: %+v", a)
		}
	}
	if real < 12 || real > 24 {
		t.Fatalf("2D walk real accesses = %d, want 12..24", real)
	}
	if guestAcc != 4 {
		t.Fatalf("guest-dimension accesses = %d, want 4", guestAcc)
	}
	if hostAcc < 8 {
		t.Fatalf("host-dimension accesses = %d, want ≥ 8", hostAcc)
	}
	// A 2D walk must cost far more than a native walk (paper: 4.4× average).
	if res.Cycles <= 2+4*191 {
		t.Fatalf("2D walk (%d cycles) not above native cold walk", res.Cycles)
	}
}

func TestNestedWarmWalkCheap(t *testing.T) {
	r := newNestedRig(t, core.Config{}, core.Config{}, false)
	w := r.walker()
	var res Result
	va := r.area.Start
	w.Walk(0, va, r.dataGPA(va), &res)
	cold := res.Cycles
	w.Walk(0, va, r.dataGPA(va), &res)
	if res.Cycles >= cold/4 {
		t.Fatalf("warm 2D walk %d vs cold %d: caches/PWC not helping", res.Cycles, cold)
	}
}

func TestNestedGuestASAPCoversGuestEntries(t *testing.T) {
	r := newNestedRig(t, core.Config{P1: true, P2: true}, core.Config{}, false)
	w := r.walker()
	var res Result
	va := r.area.Start
	w.Walk(0, va, r.dataGPA(va), &res)
	if res.PrefetchIssued != 2 {
		t.Fatalf("guest prefetches issued = %d", res.PrefetchIssued)
	}
	if res.PrefetchCovered != 2 {
		t.Fatalf("guest prefetches covered = %d", res.PrefetchCovered)
	}
	for _, a := range res.Accesses[:res.N] {
		if a.Prefetched && a.Dim != DimGuest {
			t.Fatalf("prefetch covered a %v access with host ASAP off", a.Dim)
		}
	}
}

func TestNestedHostASAPCoversHostWalks(t *testing.T) {
	r := newNestedRig(t, core.Config{}, core.Config{P1: true, P2: true}, false)
	w := r.walker()
	var res Result
	va := r.area.Start
	w.Walk(0, va, r.dataGPA(va), &res)
	// Five 1D host walks × 2 prefetches each.
	if res.PrefetchIssued != 10 {
		t.Fatalf("host prefetches issued = %d", res.PrefetchIssued)
	}
	if res.PrefetchCovered == 0 {
		t.Fatal("no host accesses covered")
	}
	for _, a := range res.Accesses[:res.N] {
		if a.Prefetched && a.Dim != DimHost {
			t.Fatalf("prefetch covered a %v access with guest ASAP off", a.Dim)
		}
	}
}

func TestNestedFullASAPFastest(t *testing.T) {
	// A page in a different PL1 node than the warm-up walk's page, so the
	// second walk still performs deep accesses.
	va := mem.FromVPN(1<<20+13*mem.NodeSpan+77) + 123
	run := func(g, h core.Config) int {
		r := newNestedRig(t, g, h, false)
		w := r.walker()
		var res Result
		w.Walk(0, r.area.Start, r.dataGPA(r.area.Start), &res)
		w.Walk(0, va, r.dataGPA(va), &res)
		return res.Cycles
	}
	base := run(core.Config{}, core.Config{})
	g := run(core.Config{P1: true, P2: true}, core.Config{})
	gh := run(core.Config{P1: true, P2: true}, core.Config{P1: true, P2: true})
	if !(gh < g && g < base) {
		t.Fatalf("ordering violated: base=%d, guest=%d, guest+host=%d", base, g, gh)
	}
}

func TestNestedHostHugePagesShortenWalks(t *testing.T) {
	rSmall := newNestedRig(t, core.Config{}, core.Config{}, false)
	rHuge := newNestedRig(t, core.Config{}, core.Config{}, true)
	var res Result
	va := rSmall.area.Start

	wSmall := rSmall.walker()
	wSmall.Walk(0, va, rSmall.dataGPA(va), &res)
	smallN := realAccesses(&res)

	wHuge := rHuge.walker()
	wHuge.Walk(0, va, rHuge.dataGPA(va), &res)
	hugeN := realAccesses(&res)

	// 2 MB host pages eliminate one access per 1D host walk: up to 5 fewer
	// (paper §5.4.2: accesses 4, 9, 14, 19, 24 of Fig 7).
	if hugeN >= smallN {
		t.Fatalf("2MB host pages did not shorten the walk: %d vs %d", hugeN, smallN)
	}
}

func realAccesses(res *Result) int {
	n := 0
	for _, a := range res.Accesses[:res.N] {
		if a.Served != cache.ServedPWC {
			n++
		}
	}
	return n
}

func TestNestedFaultReported(t *testing.T) {
	r := newNestedRig(t, core.Config{}, core.Config{}, false)
	w := r.walker()
	var res Result
	unmapped := r.area.End + mem.VirtAddr(mem.GiB)
	w.Walk(0, unmapped, 0, &res)
	if res.Present {
		t.Fatal("unmapped guest address present")
	}
	if res.N == 0 {
		t.Fatal("faulting 2D walk performed no accesses")
	}
}
