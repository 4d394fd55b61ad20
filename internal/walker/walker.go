// Package walker models the hardware page-table walker: the serial pointer
// chase through the radix tree on every TLB miss, accelerated by page-walk
// caches and, when an ASAP engine is attached, by prefetches to the deep
// page-table levels.
//
// Timing follows the paper's methodology (§4): a walk's latency is the sum of
// the latencies of the memory-hierarchy levels serving its accesses (plus the
// PWC lookup). An ASAP prefetch issued at walk start completes after the
// latency of wherever the target line resided; when the serial walker reaches
// that level it pays max(L1 latency, remaining prefetch time) — a fully
// covered access costs one L1-D hit, a partially covered one merges with the
// in-flight request.
package walker

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pt"
	"repro/internal/pwc"
)

// Dim tags which translation dimension an access belongs to.
type Dim int8

// Walk dimensions.
const (
	DimNative Dim = iota
	DimGuest
	DimHost
)

// String names the dimension.
func (d Dim) String() string {
	switch d {
	case DimNative:
		return "native"
	case DimGuest:
		return "guest"
	case DimHost:
		return "host"
	default:
		return "dim?"
	}
}

// MaxAccesses bounds the per-walk access trace: a 4-level 2D walk performs up
// to 24 memory accesses plus PWC-skip markers.
const MaxAccesses = 48

// Access records one page-walk request: which PT level it read, where the
// memory hierarchy served it, what it cost, and whether an ASAP prefetch
// covered it. PWC-skipped levels appear with Served == ServedPWC and zero
// cycles (the single PWC lookup latency is accounted once per walk).
type Access struct {
	Dim        Dim
	Level      int8
	Served     cache.ServedBy
	Cycles     int32
	Prefetched bool
}

// Result is the outcome of one simulated walk.
type Result struct {
	Cycles          int  // total walk latency
	Present         bool // translation exists
	Huge            bool // terminal mapping is a 2 MB page
	N               int
	Accesses        [MaxAccesses]Access
	PrefetchIssued  int // prefetches launched
	PrefetchCovered int // demand accesses satisfied by a prefetch
}

func (r *Result) reset() {
	r.Cycles = 0
	r.Present = false
	r.Huge = false
	r.N = 0
	r.PrefetchIssued = 0
	r.PrefetchCovered = 0
}

func (r *Result) add(dim Dim, level int, served cache.ServedBy, cycles int, prefetched bool) {
	if r.N < MaxAccesses {
		r.Accesses[r.N] = Access{Dim: dim, Level: int8(level), Served: served, Cycles: int32(cycles), Prefetched: prefetched}
		r.N++
	}
}

// prefetchState tracks in-flight ASAP prefetches for one (sub)walk: the
// completion time (relative to walk start) and target line per PT level.
type prefetchState struct {
	done [core.MaxLevels + 1]int
	line [core.MaxLevels + 1]uint64
}

func (p *prefetchState) clear() {
	for i := range p.done {
		p.done[i] = -1
	}
}

// issue launches the engine's prefetches for va at relative time t, charging
// MSHRs (absolute base time now) and filling the hierarchy.
func issue(e *core.Engine, h *cache.Hierarchy, mshr *cache.MSHRFile, tr *obs.Tracer,
	va mem.VirtAddr, now int64, t int, buf []core.Target, p *prefetchState) (issued int, _ []core.Target) {
	p.clear()
	if e == nil {
		return 0, buf
	}
	buf = e.Targets(va, buf[:0])
	for _, tg := range buf {
		where := h.Where(tg.Addr)
		lat := h.Latency(where)
		if mshr != nil && !mshr.TryAcquire(now+int64(t), now+int64(t+lat)) {
			if tr != nil {
				tr.MSHRDrop(tg.Level, now+int64(t))
			}
			continue // best effort: no MSHR, no prefetch (paper §3.4)
		}
		// The prefetch travels like a normal request and lands in L1-D.
		h.Access(tg.Addr)
		p.done[tg.Level] = t + lat
		p.line[tg.Level] = tg.Addr.Line()
		issued++
		if tr != nil {
			tr.Prefetch(tg.Level, now+int64(t), int64(lat))
		}
	}
	return issued, buf
}

// Walker simulates native (1D) walks.
type Walker struct {
	H    *cache.Hierarchy
	PWC  *pwc.PWC
	ASAP *core.Engine    // nil for the baseline
	MSHR *cache.MSHRFile // nil means unlimited MSHRs
	// Trace, when non-nil, receives per-step walk events (internal/obs).
	// Disabled tracing costs one nil check per walk phase, nothing per
	// reference.
	Trace *obs.Tracer

	targets []core.Target
	pf      prefetchState
	pw      pt.WalkResult // the radix walk of the current Walk, filled in place
}

// Walk simulates the walk triggered by a TLB miss on va at absolute time now,
// writing the trace into res.
func (w *Walker) Walk(now int64, table *pt.Table, va mem.VirtAddr, res *Result) {
	res.reset()
	t := 0
	var issued int
	issued, w.targets = issue(w.ASAP, w.H, w.MSHR, w.Trace, va, now, t, w.targets, &w.pf)
	res.PrefetchIssued = issued

	root := table.Config().Levels
	t += w.PWC.Latency()
	start := w.PWC.Lookup(va, root)
	if w.Trace != nil {
		w.Trace.PWCLookup(now, int64(w.PWC.Latency()), start)
	}
	for l := root; l > start; l-- {
		res.add(DimNative, l, cache.ServedPWC, 0, false)
		if w.Trace != nil {
			w.Trace.Step(DimNative.String(), l, cache.ServedPWC.String(), now+int64(t), 0, false)
		}
	}

	wr := &w.pw
	table.WalkInto(va, wr)
	l1 := w.H.Latency(cache.ServedL1)
	for i := 0; i < wr.N; i++ {
		e := wr.Entries[i]
		if e.Level > start {
			continue // skipped via PWC
		}
		served, cost, wasPf := cache.ServedL1, 0, false
		if d := w.pf.done[e.Level]; d >= 0 && w.pf.line[e.Level] == e.EntryAddr.Line() {
			cost = d - t
			if cost < l1 {
				cost = l1
			}
			wasPf = true
			res.PrefetchCovered++
		} else {
			served, cost = w.H.Access(e.EntryAddr)
		}
		if w.Trace != nil {
			w.Trace.Step(DimNative.String(), int(e.Level), served.String(), now+int64(t), int64(cost), wasPf)
		}
		t += cost
		res.add(DimNative, e.Level, served, cost, wasPf)
		if e.Level != wr.TermLevel {
			w.PWC.Insert(va, e.Level)
		}
	}
	res.Cycles = t
	res.Present = wr.Present
	res.Huge = wr.Huge
}
