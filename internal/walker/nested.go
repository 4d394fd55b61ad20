package walker

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pt"
	"repro/internal/pwc"
)

// Nested simulates the 2D page walks of a virtualized system (paper Fig 7):
// each guest page-table access first requires a full 1D walk of the host
// (nested/EPT) page table to translate the guest-physical address of the
// guest PT node, and the final data page takes one more host walk — up to 24
// memory accesses for 4-level tables.
//
// ASAP applies in both dimensions: guest prefetches (to the machine addresses
// of the guest's pinned, sorted PL1/PL2 regions) launch at 2D-walk start;
// host prefetches launch at the start of each constituent 1D host walk.
type Nested struct {
	H         *cache.Hierarchy
	GuestPWC  *pwc.PWC
	HostPWC   *pwc.PWC
	GuestASAP *core.Engine // nil disables guest-dimension prefetch
	HostASAP  *core.Engine // nil disables host-dimension prefetch
	MSHR      *cache.MSHRFile
	GuestPT   *pt.Table
	HostPT    *pt.Table
	// Translate maps a guest-physical address to its machine address. It
	// must agree with the host page table's layout (virt.Machine provides
	// both consistently).
	Translate func(gpa mem.PhysAddr) mem.PhysAddr
	// Trace, when non-nil, receives per-step walk events (internal/obs).
	Trace *obs.Tracer

	gTargets []core.Target
	hTargets []core.Target
	gpf      prefetchState
	hpf      prefetchState
	// gw and hw are the guest and host radix walks, filled in place. They
	// are two because every host walk runs inside the guest walk's loop.
	gw, hw pt.WalkResult
}

// Walk simulates the 2D walk for guest virtual address gva whose data page
// lives at guest-physical address dataGPA, writing the trace into res.
func (n *Nested) Walk(now int64, gva mem.VirtAddr, dataGPA mem.PhysAddr, res *Result) {
	res.reset()
	t := 0

	// Guest-dimension prefetches launch immediately at 2D-walk start,
	// overlapping the guest PT-entry accesses with everything before them
	// (paper §3.6: accesses 15 and 20 in Fig 7).
	var issued int
	issued, n.gTargets = issue(n.GuestASAP, n.H, n.MSHR, n.Trace, gva, now, t, n.gTargets, &n.gpf)
	res.PrefetchIssued += issued

	gRoot := n.GuestPT.Config().Levels
	t += n.GuestPWC.Latency()
	gStart := n.GuestPWC.Lookup(gva, gRoot)
	if n.Trace != nil {
		n.Trace.PWCLookup(now, int64(n.GuestPWC.Latency()), gStart)
	}
	for l := gRoot; l > gStart; l-- {
		// A guest PWC hit caches the guest entry together with its machine
		// pointer, so the host walk for that level is skipped entirely.
		res.add(DimGuest, l, cache.ServedPWC, 0, false)
		if n.Trace != nil {
			n.Trace.Step(DimGuest.String(), l, cache.ServedPWC.String(), now+int64(t), 0, false)
		}
	}

	gw := &n.gw
	n.GuestPT.WalkInto(gva, gw)
	l1 := n.H.Latency(cache.ServedL1)
	for i := 0; i < gw.N; i++ {
		e := gw.Entries[i]
		if e.Level > gStart {
			continue
		}
		// 1D host walk translating the guest PT node's page.
		t = n.hostWalk(now, t, e.EntryAddr, res)
		// Access the guest PT entry itself, at its machine address.
		maddr := n.Translate(e.EntryAddr)
		served, cost, wasPf := cache.ServedL1, 0, false
		if d := n.gpf.done[e.Level]; d >= 0 && n.gpf.line[e.Level] == maddr.Line() {
			cost = d - t
			if cost < l1 {
				cost = l1
			}
			wasPf = true
			res.PrefetchCovered++
		} else {
			served, cost = n.H.Access(maddr)
		}
		if n.Trace != nil {
			n.Trace.Step(DimGuest.String(), int(e.Level), served.String(), now+int64(t), int64(cost), wasPf)
		}
		t += cost
		res.add(DimGuest, e.Level, served, cost, wasPf)
		if e.Level != gw.TermLevel {
			n.GuestPWC.Insert(gva, e.Level)
		}
	}

	if gw.Present {
		// Final 1D host walk translating the data page itself.
		t = n.hostWalk(now, t, dataGPA, res)
	}

	res.Cycles = t
	res.Present = gw.Present
	res.Huge = gw.Huge
}

// hostWalk performs one 1D walk of the host page table for guest-physical
// address gpa, starting at relative walk time t, and returns the updated
// time.
func (n *Nested) hostWalk(now int64, t int, gpa mem.PhysAddr, res *Result) int {
	// Host-dimension prefetches launch as the 1D walk starts (paper §3.6),
	// using the guest-physical address against the host range registers.
	var issued int
	issued, n.hTargets = issue(n.HostASAP, n.H, n.MSHR, n.Trace, mem.VirtAddr(gpa), now, t, n.hTargets, &n.hpf)
	res.PrefetchIssued += issued

	hRoot := n.HostPT.Config().Levels
	hT0 := t
	t += n.HostPWC.Latency()
	hStart := n.HostPWC.Lookup(mem.VirtAddr(gpa), hRoot)
	if n.Trace != nil {
		n.Trace.PWCLookup(now+int64(hT0), int64(n.HostPWC.Latency()), hStart)
	}
	for l := hRoot; l > hStart; l-- {
		res.add(DimHost, l, cache.ServedPWC, 0, false)
		if n.Trace != nil {
			n.Trace.Step(DimHost.String(), l, cache.ServedPWC.String(), now+int64(t), 0, false)
		}
	}

	hw := &n.hw
	n.HostPT.WalkInto(mem.VirtAddr(gpa), hw)
	l1 := n.H.Latency(cache.ServedL1)
	for i := 0; i < hw.N; i++ {
		e := hw.Entries[i]
		if e.Level > hStart {
			continue
		}
		served, cost, wasPf := cache.ServedL1, 0, false
		if d := n.hpf.done[e.Level]; d >= 0 && n.hpf.line[e.Level] == e.EntryAddr.Line() {
			cost = d - t
			if cost < l1 {
				cost = l1
			}
			wasPf = true
			res.PrefetchCovered++
		} else {
			served, cost = n.H.Access(e.EntryAddr)
		}
		if n.Trace != nil {
			n.Trace.Step(DimHost.String(), int(e.Level), served.String(), now+int64(t), int64(cost), wasPf)
		}
		t += cost
		res.add(DimHost, e.Level, served, cost, wasPf)
		if e.Level != hw.TermLevel {
			n.HostPWC.Insert(mem.VirtAddr(gpa), e.Level)
		}
	}
	return t
}
