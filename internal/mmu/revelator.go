package mmu

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pwc"
	"repro/internal/rng"
	"repro/internal/tlb"
	"repro/internal/walker"
)

// Revelator hash-table plan. The OS maintains one hashed translation table
// per page-size class in ordinary memory; buckets are cache-line sized, so a
// probe is one data-hierarchy fetch per class. The region sits above every
// area of internal/sim's machine address-space plan (whose top allocation is
// frame 1<<35), so hash traffic contends for cache capacity with walks and
// co-runner data without aliasing them.
const (
	revelatorTableBase = mem.Frame(1) << 36
	revelatorBuckets   = 1 << 18 // per-class buckets (16 MB of bucket lines)
	revelatorWays      = 4       // translations per bucket
)

// revelatorScheme models system-software-guided hash-based speculative
// translation (PAPERS.md): on an L2-TLB miss the per-size hash buckets for
// the faulting page are fetched through the data hierarchy (in parallel, so
// the critical path is the slower fetch). A bucket entry for the page yields
// a speculative translation at fetch latency; the execution continues while
// a verification walk runs off the critical path — its page-table and PWC
// traffic still happens, modeling the bandwidth cost of verification. On a
// hash miss the walk is the translation (overlapped with the failed bucket
// fetches) and the OS records the discovered translation in the table.
//
// The hash table is OS-managed memory, not hardware state: context switches
// never flush it (even under the untagged-TLB policy), and entries are
// always tagged by process.
type revelatorScheme struct {
	tlb *tlb.TwoLevel
	pwc *pwc.PWC
	w   *walker.Walker
	h   *cache.Hierarchy
	tr  *obs.Tracer

	// entries models the table's bounded occupancy: per-bucket capacity with
	// OS LRU replacement. Keys are mixed (pid, page, class) tags whose low
	// bits double as the bucket index, so the occupancy model and the
	// fetched bucket addresses agree.
	entries *cache.SetAssoc
	scratch walker.Result // verification-walk sink (off the critical path)

	flushOnSwitch bool
	pid           uint64
	probes, hits  uint64

	procs procList
	cur   *Process
}

func newRevelator(cfg Config) *revelatorScheme {
	s := &revelatorScheme{
		tlb:           tlb.NewTwoLevel(cfg.ClusteredTLB),
		pwc:           pwc.New(cfg.PWC),
		h:             cfg.Hier,
		tr:            cfg.Trace,
		entries:       cache.NewSetAssoc(revelatorBuckets*revelatorWays, revelatorWays),
		flushOnSwitch: cfg.FlushOnSwitch,
	}
	s.w = &walker.Walker{H: cfg.Hier, PWC: s.pwc, MSHR: cfg.MSHR, Trace: cfg.Trace}
	return s
}

// slot returns the occupancy key and bucket-line address for a page. The key
// is the mixed (pid, page number, class) tag; its low bits index the bucket,
// exactly the arithmetic the OS hash function would perform. Mixing makes
// bucket pressure uniform; distinct pages colliding on a full 64-bit mixed
// tag is negligible (and a real design verifies every speculation anyway).
func (s *revelatorScheme) slot(pageNum uint64, class tlb.PageClass) (key uint64, addr mem.PhysAddr) {
	key = rng.Mix64(s.pid<<tlb.ASIDShift | pageNum<<1 | uint64(class))
	addr = revelatorTableBase.Addr() + mem.PhysAddr((key&(revelatorBuckets-1))*mem.LineBytes)
	return key, addr
}

// Attach implements Scheme.
func (s *revelatorScheme) Attach(pid int, p *Process) { s.procs.attach(pid, p) }

// Boot implements Scheme.
func (s *revelatorScheme) Boot(pid int) {
	s.cur = s.procs[pid]
	s.pid = uint64(pid)
}

// Switch implements Scheme: hardware translation state follows the policy;
// the in-memory hash table survives every switch.
func (s *revelatorScheme) Switch(pid int) int {
	s.cur = s.procs[pid]
	s.pid = uint64(pid)
	if s.flushOnSwitch {
		s.tlb.Flush()
		s.pwc.Flush()
	} else {
		s.tlb.SetASID(uint64(pid))
		s.pwc.SetASID(uint64(pid))
	}
	return 0
}

// Translate implements Scheme. The frame is resolved for the TLB fill only,
// as in the asap scheme.
func (s *revelatorScheme) Translate(now int64, va mem.VirtAddr, wr *walker.Result) bool {
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
	k4, a4 := s.slot(tlb.PageNumber(va, tlb.Page4K), tlb.Page4K)
	k2, a2 := s.slot(tlb.PageNumber(va, tlb.Page2M), tlb.Page2M)
	// Both per-size buckets are fetched in parallel; the critical path is
	// the slower one.
	served4, lat4 := s.h.Access(a4)
	served2, lat2 := s.h.Access(a2)
	lat, served := lat4, served4
	if lat2 > lat {
		lat, served = lat2, served2
	}
	hit4 := s.entries.Lookup(k4)
	hit2 := !hit4 && s.entries.Lookup(k2)
	if hit4 || hit2 {
		s.hits++
		if s.tr != nil {
			s.tr.AccelProbe("hash", true)
		}
		// Speculative translation at bucket-fetch latency; the verification
		// walk proceeds off the critical path but performs its memory and
		// PWC accesses. Its steps are not traced: overlapping the speculative
		// resolution, they would break the timeline's span nesting, and the
		// walk's cycles are off the critical path by construction.
		s.w.Trace = nil
		s.w.Walk(now, p.Table, va, &s.scratch)
		s.w.Trace = s.tr
		level := 1
		if hit2 {
			level = 2
		}
		*wr = walker.Result{Cycles: lat, Present: true, Huge: hit2, N: 1}
		wr.Accesses[0] = walker.Access{
			Dim: walker.DimNative, Level: int8(level), Served: served, Cycles: int32(lat),
		}
		if s.tr != nil {
			s.tr.Step(walker.DimNative.String(), level, served.String(), now, int64(lat), false)
		}
		s.tlb.InsertVA(va, hit2, p.Frame(va.VPN()), p.Neighbors)
		return true
	}
	if s.tr != nil {
		s.tr.AccelProbe("hash", false)
	}
	s.w.Walk(now, p.Table, va, wr)
	// The walk started alongside the bucket fetches; a fetch outlasting the
	// walk (never in practice) would bound the latency.
	if wr.Cycles < lat {
		wr.Cycles = lat
	}
	// The OS records the faulted translation under its discovered size.
	k := k4
	if wr.Huge {
		k = k2
	}
	s.entries.LookupInsert(k)
	s.tlb.InsertVA(va, wr.Huge, p.Frame(va.VPN()), p.Neighbors)
	return true
}

// Counters implements Scheme.
func (s *revelatorScheme) Counters() Counters {
	return Counters{
		TLBAccesses: s.tlb.Accesses,
		TLBL2Misses: s.tlb.L2Misses,
		TLBFlushes:  s.tlb.Flushes,
		Lookups:     s.probes,
		Hits:        s.hits,
		MSHRDropped: s.w.MSHR.Dropped(),
	}
}
