package mmu

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/tlb"
	"repro/internal/walker"
)

// asapScheme is the paper's pipeline: two-level TLB, split PWCs, the radix
// walker and — when a prefetch configuration is enabled — the ASAP
// range-register engine. Its Translate path reproduces the historical
// inlined loop of internal/sim byte for byte.
type asapScheme struct {
	tlb    *tlb.TwoLevel
	pwc    *pwc.PWC
	w      *walker.Walker
	engine *core.Engine // nil for the baseline
	mshr   *cache.MSHRFile
	tr     *obs.Tracer

	flushOnSwitch bool
	procs         procList
	cur           *Process
}

func newASAP(cfg Config) *asapScheme {
	s := &asapScheme{
		tlb:           tlb.NewTwoLevel(cfg.ClusteredTLB),
		pwc:           pwc.New(cfg.PWC),
		mshr:          cfg.MSHR,
		tr:            cfg.Trace,
		flushOnSwitch: cfg.FlushOnSwitch,
	}
	if cfg.ASAP.Enabled() {
		s.engine = core.NewEngine(cfg.RangeRegisters, cfg.ASAP)
		s.engine.Trace = cfg.Trace
	}
	s.w = &walker.Walker{H: cfg.Hier, PWC: s.pwc, ASAP: s.engine, MSHR: cfg.MSHR, Trace: cfg.Trace}
	return s
}

// Attach implements Scheme.
func (s *asapScheme) Attach(pid int, p *Process) { s.procs.attach(pid, p) }

// Boot implements Scheme: the boot-time descriptor install of the first
// scheduled process (a swap of an empty register file, so the install and
// overflow accounting matches a capacity-limited load exactly).
func (s *asapScheme) Boot(pid int) {
	s.cur = s.procs[pid]
	if s.engine != nil {
		s.engine.Swap(s.cur.Descs)
	}
}

// Switch implements Scheme: descriptor swap first (the OS restores register
// state before resuming), then the TLB/PWC policy action.
func (s *asapScheme) Switch(pid int) int {
	s.cur = s.procs[pid]
	moved := 0
	if s.engine != nil {
		moved = s.engine.Swap(s.cur.Descs)
	}
	if s.flushOnSwitch {
		s.tlb.Flush()
		s.pwc.Flush()
	} else {
		s.tlb.SetASID(uint64(pid))
		s.pwc.SetASID(uint64(pid))
	}
	return moved
}

// Translate implements Scheme: TLB probe, then walk (range prefetches issue
// inside the walker) and fill. The frame is resolved for the fill only: a
// TLB hit needs none (see tlb.TwoLevel.LookupVA).
func (s *asapScheme) Translate(now int64, va mem.VirtAddr, wr *walker.Result) bool {
	if s.tlb.LookupVA(va, 0, nil) {
		if s.tr != nil {
			s.tr.TLBHit(now)
		}
		return false
	}
	if s.tr != nil {
		s.tr.WalkStart(now)
	}
	p := s.cur
	s.w.Walk(now, p.Table, va, wr)
	s.tlb.InsertVA(va, wr.Huge, p.Frame(va.VPN()), p.Neighbors)
	return true
}

// Counters implements Scheme.
func (s *asapScheme) Counters() Counters {
	c := Counters{
		TLBAccesses: s.tlb.Accesses,
		TLBL2Misses: s.tlb.L2Misses,
		TLBFlushes:  s.tlb.Flushes,
		MSHRDropped: s.mshr.Dropped(),
	}
	if s.engine != nil {
		c.Lookups = s.engine.Lookups()
		c.Hits = s.engine.RangeHits()
		c.Overflowed = s.engine.Overflowed()
	}
	return c
}

// NestedConfig assembles the virtualized (2D-walk) variant of the asap
// scheme: guest and host page tables, per-dimension ASAP engines, and the
// GPA-to-machine translation closures of the deployment.
type NestedConfig struct {
	Hier         *cache.Hierarchy
	MSHR         *cache.MSHRFile
	PWC          pwc.Config
	ClusteredTLB bool

	Guest, Host           core.Config
	GuestDescs, HostDescs []*core.Descriptor
	RangeRegisters        int

	GuestPT, HostPT *pt.Table
	// Translate maps a guest-physical address to its machine address.
	Translate func(gpa mem.PhysAddr) mem.PhysAddr
	// DataGPA maps a guest virtual address to the guest-physical address
	// backing its data page.
	DataGPA func(va mem.VirtAddr) mem.PhysAddr
	// Trace receives the scheme's translation events (see Config.Trace).
	Trace *obs.Tracer
}

// nestedScheme is the virtualized asap pipeline. Virtualization is
// single-process in this simulator, so the multi-process lifecycle hooks are
// inert.
type nestedScheme struct {
	tlb     *tlb.TwoLevel
	w       *walker.Nested
	mshr    *cache.MSHRFile
	tr      *obs.Tracer
	dataGPA func(va mem.VirtAddr) mem.PhysAddr
}

// NewNested constructs the virtualized asap scheme. Engines install their
// descriptor files at construction, mirroring the boot-time load of the
// native path.
func NewNested(cfg NestedConfig) Scheme {
	s := &nestedScheme{
		tlb:     tlb.NewTwoLevel(cfg.ClusteredTLB),
		mshr:    cfg.MSHR,
		tr:      cfg.Trace,
		dataGPA: cfg.DataGPA,
	}
	s.w = &walker.Nested{
		H:         cfg.Hier,
		GuestPWC:  pwc.New(cfg.PWC),
		HostPWC:   pwc.New(cfg.PWC),
		GuestASAP: engineFor(cfg.Guest, cfg.GuestDescs, cfg.RangeRegisters),
		HostASAP:  engineFor(cfg.Host, cfg.HostDescs, cfg.RangeRegisters),
		MSHR:      cfg.MSHR,
		GuestPT:   cfg.GuestPT,
		HostPT:    cfg.HostPT,
		Translate: cfg.Translate,
		Trace:     cfg.Trace,
	}
	if s.w.GuestASAP != nil {
		s.w.GuestASAP.Trace = cfg.Trace
	}
	if s.w.HostASAP != nil {
		s.w.HostASAP.Trace = cfg.Trace
	}
	return s
}

// engineFor loads descriptors into a fresh range-register file, or returns
// nil for a disabled configuration.
func engineFor(cfg core.Config, descs []*core.Descriptor, capacity int) *core.Engine {
	if !cfg.Enabled() {
		return nil
	}
	e := core.NewEngine(capacity, cfg)
	for _, d := range descs {
		e.Install(d)
	}
	return e
}

// Attach implements Scheme (inert: the nested deployment is assembled whole
// in NewNested).
func (s *nestedScheme) Attach(pid int, p *Process) {}

// Boot implements Scheme (inert; see Attach).
func (s *nestedScheme) Boot(pid int) {}

// Switch implements Scheme. Virtualized runs are single-process, a dimension
// internal/sim validates before constructing the scheme.
func (s *nestedScheme) Switch(pid int) int {
	panic("mmu: the nested asap scheme is single-process")
}

// Translate implements Scheme: TLB probe, then 2D walk and fill. The data
// page's guest-physical address, which the walk needs, and its machine
// frame, which the fill needs, are resolved on a miss only; both maps are
// pure functions, so when they run changes nothing.
func (s *nestedScheme) Translate(now int64, va mem.VirtAddr, wr *walker.Result) bool {
	if s.tlb.LookupVA(va, 0, nil) {
		if s.tr != nil {
			s.tr.TLBHit(now)
		}
		return false
	}
	if s.tr != nil {
		s.tr.WalkStart(now)
	}
	gpa := s.dataGPA(va)
	s.w.Walk(now, va, gpa, wr)
	s.tlb.InsertVA(va, wr.Huge, uint64(s.w.Translate(gpa).Frame()), nil)
	return true
}

// Counters implements Scheme: the guest engine reports through the primary
// acceleration counters, the host engine through the host set.
func (s *nestedScheme) Counters() Counters {
	c := Counters{
		TLBAccesses: s.tlb.Accesses,
		TLBL2Misses: s.tlb.L2Misses,
		TLBFlushes:  s.tlb.Flushes,
		MSHRDropped: s.mshr.Dropped(),
	}
	if e := s.w.GuestASAP; e != nil {
		c.Lookups = e.Lookups()
		c.Hits = e.RangeHits()
		c.Overflowed = e.Overflowed()
	}
	if e := s.w.HostASAP; e != nil {
		c.HostLookups = e.Lookups()
		c.HostHits = e.RangeHits()
		c.HostOverflowed = e.Overflowed()
	}
	return c
}
