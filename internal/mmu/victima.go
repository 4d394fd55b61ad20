package mmu

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pwc"
	"repro/internal/tlb"
	"repro/internal/walker"
)

// victimaScheme models Victima-style TLB-entry residency in the L2 data
// cache (PAPERS.md): the L2 cache doubles as a massive victim TLB. On an
// L2-TLB miss the scheme probes a transplanted-entry tag set sized like the
// L2; a tag hit whose backing page-table entry line still resides in L2 (or
// closer) resolves the translation at data-cache latency, skipping the walk
// entirely. A miss pays the failed L2 probe and falls back to a full walk,
// after which the discovered translation is transplanted: its tag enters the
// resident set and its PTE line — just fetched by the walk — sits in the
// cache, ready to serve the next miss to the same page.
//
// There is no prefetch engine; the acceleration counters report the L2
// residency probes (Lookups) and the probes resolved from the cache (Hits).
type victimaScheme struct {
	tlb *tlb.TwoLevel
	pwc *pwc.PWC
	w   *walker.Walker
	h   *cache.Hierarchy
	tr  *obs.Tracer

	// resident tags the translations transplanted into the L2 cache, with
	// the L2's own geometry (one tag per line). A tag records that a
	// transplant happened; validity is the backing PTE line still being
	// L2-resident, so cache evictions invalidate transplants naturally.
	resident *cache.SetAssoc
	probeLat int // latency of a failed L2 probe

	flushOnSwitch bool
	asid          uint64
	probes, hits  uint64

	procs procList
	cur   *Process
}

func newVictima(cfg Config) *victimaScheme {
	l2 := cfg.Hier.Config().L2
	s := &victimaScheme{
		tlb:           tlb.NewTwoLevel(cfg.ClusteredTLB),
		pwc:           pwc.New(cfg.PWC),
		h:             cfg.Hier,
		tr:            cfg.Trace,
		resident:      cache.NewSetAssoc(l2.SizeBytes/mem.LineBytes, l2.Ways),
		probeLat:      l2.Latency,
		flushOnSwitch: cfg.FlushOnSwitch,
	}
	s.w = &walker.Walker{H: cfg.Hier, PWC: s.pwc, MSHR: cfg.MSHR, Trace: cfg.Trace}
	return s
}

// vtag packs a transplanted-entry tag; the layout mirrors the TLB's
// (asid, page number, size class) encoding so ASID-tagged retention works
// identically.
func vtag(asid, pageNum uint64, class tlb.PageClass) uint64 {
	return asid<<tlb.ASIDShift | pageNum<<1 | uint64(class)
}

// Attach implements Scheme.
func (s *victimaScheme) Attach(pid int, p *Process) { s.procs.attach(pid, p) }

// Boot implements Scheme.
func (s *victimaScheme) Boot(pid int) { s.cur = s.procs[pid] }

// Switch implements Scheme. Transplanted entries are TLB state: the untagged
// policy flushes them with the TLBs, the tagged policy retains them under
// the incoming ASID.
func (s *victimaScheme) Switch(pid int) int {
	s.cur = s.procs[pid]
	if s.flushOnSwitch {
		s.tlb.Flush()
		s.pwc.Flush()
		s.resident.Flush()
	} else {
		s.asid = uint64(pid)
		s.tlb.SetASID(uint64(pid))
		s.pwc.SetASID(uint64(pid))
	}
	return 0
}

// probe checks the transplanted set for either page size of va and, on a tag
// hit, whether the backing PTE line still resides within the L2. It returns
// the serving level and latency of the cache access that resolved the
// translation.
func (s *victimaScheme) probe(va mem.VirtAddr) (served cache.ServedBy, lat int, huge, ok bool) {
	for _, class := range [2]tlb.PageClass{tlb.Page4K, tlb.Page2M} {
		if !s.resident.Lookup(vtag(s.asid, tlb.PageNumber(va, class), class)) {
			continue
		}
		level := 1
		if class == tlb.Page2M {
			level = 2
		}
		addr, reach := s.cur.Table.EntryAddr(va, level)
		if !reach {
			continue // stale transplant: the walk path no longer reaches here
		}
		if s.h.Where(addr) > cache.ServedL2 {
			continue // evicted beyond L2: the transplant is dead
		}
		served, lat = s.h.Access(addr)
		return served, lat, class == tlb.Page2M, true
	}
	return 0, 0, false, false
}

// Translate implements Scheme. The frame is resolved for the TLB fill only,
// as in the asap scheme.
func (s *victimaScheme) Translate(now int64, va mem.VirtAddr, wr *walker.Result) bool {
	if s.tlb.LookupVA(va, 0, nil) {
		if s.tr != nil {
			s.tr.TLBHit(now)
		}
		return false
	}
	p := s.cur
	if s.tr != nil {
		s.tr.WalkStart(now)
	}
	s.probes++
	if served, lat, huge, ok := s.probe(va); ok {
		s.hits++
		if s.tr != nil {
			s.tr.AccelProbe("resident", true)
		}
		level := 1
		if huge {
			level = 2
		}
		*wr = walker.Result{Cycles: lat, Present: true, Huge: huge, N: 1}
		wr.Accesses[0] = walker.Access{
			Dim: walker.DimNative, Level: int8(level), Served: served, Cycles: int32(lat),
		}
		if s.tr != nil {
			s.tr.Step(walker.DimNative.String(), level, served.String(), now, int64(lat), false)
		}
		s.tlb.InsertVA(va, huge, p.Frame(va.VPN()), p.Neighbors)
		return true
	}
	if s.tr != nil {
		s.tr.AccelProbe("resident", false)
	}
	s.w.Walk(now, p.Table, va, wr)
	// The failed L2 probe precedes the walk on the critical path.
	wr.Cycles += s.probeLat
	class := tlb.Page4K
	if wr.Huge {
		class = tlb.Page2M
	}
	s.resident.LookupInsert(vtag(s.asid, tlb.PageNumber(va, class), class))
	s.tlb.InsertVA(va, wr.Huge, p.Frame(va.VPN()), p.Neighbors)
	return true
}

// Counters implements Scheme.
func (s *victimaScheme) Counters() Counters {
	return Counters{
		TLBAccesses: s.tlb.Accesses,
		TLBL2Misses: s.tlb.L2Misses,
		TLBFlushes:  s.tlb.Flushes,
		Lookups:     s.probes,
		Hits:        s.hits,
		MSHRDropped: s.w.MSHR.Dropped(),
	}
}
