package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/walker"
	"repro/internal/workload"
)

// ctxCheckMask paces cancellation checks in the reference loop: the context
// is polled every ctxCheckMask+1 references. 4096 keeps the poll far off the
// hot path (one interface call per ~4k translate steps, ≤1% on the walk
// micros per the bench guard) while still bounding how long a cancelled run
// keeps simulating to a few microseconds.
const ctxCheckMask = 4096 - 1

// Result carries every metric the paper's tables and figures need.
type Result struct {
	Scenario Scenario

	// Translation metrics (measured window).
	Accesses     uint64
	Walks        uint64
	WalkCycles   uint64
	AvgWalkLat   float64 // Fig 3/8/10/12: average page walk latency
	TLBMissRatio float64
	MPKI         float64 // L2-TLB misses per kilo-instruction (Table 7)

	// Execution-time model (Fig 2, Table 6).
	TotalCycles  float64
	WalkFraction float64 // share of cycles spent in page walks

	// Fig 9: page-walk requests per PT level × serving hierarchy level
	// (native-dimension accesses only).
	Breakdown stats.Breakdown

	// Acceleration-path internals. RangeHitRate covers the scheme's primary
	// mechanism — ASAP range-register lookups (or the guest engine under
	// virtualization), Victima's L2 residency probes, Revelator's hash-table
	// probes; HostRangeHitRate covers the host-dimension engine, which a
	// virtualized walk consults once per guest-walk step. RangeOverflowed
	// counts VMA descriptors dropped during the measured window because
	// every range register was occupied. Single-process runs install all
	// descriptors before warmup, so they report 0 here; under multi-process
	// scheduling every switch-in restores the incoming process's descriptor
	// file and the capacity-limited drops recur inside the window.
	PrefetchIssued   uint64
	PrefetchCovered  uint64
	RangeHitRate     float64
	HostRangeHitRate float64
	MSHRDropped      uint64
	RangeOverflowed  uint64

	// Multi-process metrics (measured window). Switches counts context
	// switches taken; ShootdownFlushes counts TLB invalidation events — full
	// flushes under Params.FlushOnSwitch, ASID shootdowns otherwise (tagged
	// retention performs none during normal scheduling, so it reports 0).
	Switches         uint64
	ShootdownFlushes uint64
}

// refSource produces the reference stream that drives a run. ok reports
// whether a reference was produced: synthetic generators never end, but a
// replayed trace turns false when it runs dry, which ends the run.
type refSource interface {
	Next() (va mem.VirtAddr, ok bool)
}

// genSource adapts the endless synthetic generator to the source contract.
type genSource struct{ g *workload.Generator }

func (s genSource) Next() (mem.VirtAddr, bool) { return s.g.Next(), true }

// RefTap observes the reference stream of a run, process by process — the
// recorder hook behind trace capture. The simulator announces each process
// (its spec, realized layout and generator seed) before that process's first
// reference; every reference then flows through Ref in execution order.
// trace.Recorder implements this interface.
type RefTap interface {
	BeginProcess(pid int, spec workload.Spec, layout *workload.Layout, seed uint64) error
	Ref(pid int, va mem.VirtAddr)
}

// tapSource forwards a source's references to the tap as they are consumed.
type tapSource struct {
	src refSource
	tap RefTap
	pid int
}

func (t tapSource) Next() (mem.VirtAddr, bool) {
	va, ok := t.src.Next()
	if ok {
		t.tap.Ref(t.pid, va)
	}
	return va, ok
}

// tapped announces a process to the tap (when one is attached) and wraps its
// source so every consumed reference is observed.
func tapped(src refSource, tap RefTap, pid int, spec workload.Spec, layout *workload.Layout, seed uint64) (refSource, error) {
	if tap == nil {
		return src, nil
	}
	if err := tap.BeginProcess(pid, spec, layout, seed); err != nil {
		return nil, err
	}
	return tapSource{src: src, tap: tap, pid: pid}, nil
}

// Run simulates one scenario cell and returns its metrics. It validates the
// cell first (see Validate) and builds nothing for a rejected one.
//
// The reference loop polls ctx every few thousand references (see
// ctxCheckMask) and aborts with ctx.Err() when it is cancelled or its
// deadline passes, so a stuck or oversized cell cannot hold a worker
// hostage. A cancelled run returns no partial metrics — callers that want
// partial grids handle cancellation per cell (see internal/asapd). Nor does
// a run that reaches p.MaxRefs references before its measured window
// fills: it fails with an error naming the walks it measured. A replayed
// trace that runs dry is a clean end, with whatever window it reached.
//
// tap, when non-nil, observes the reference stream (trace capture); tr, when
// non-nil, records cycle-domain events of the translation machinery. Both are
// pure observation: metrics are identical with and without them.
func Run(ctx context.Context, sc Scenario, p Params, tap RefTap, tr *obs.Tracer) (*Result, error) {
	res := &Result{Scenario: sc}
	if err := Validate(sc, p); err != nil {
		return res, err
	}
	h := cache.NewHierarchy(p.Cache)
	mshr := cache.NewMSHRFile(p.MSHRs)
	setup := setupNative
	if p.Processes > 1 {
		setup = setupMix
	} else if sc.Virtualized {
		setup = setupVirt
	}
	sch, err := setup(sc, p, h, mshr, tap, tr)
	if err != nil {
		return res, err
	}
	return res, drive(ctx, sc, p, sch, h, res, tr)
}

// RunTapped is Run without a context or tracer. It exists only because the
// repository benchmark (bench/, its own module) calls it; everything else
// calls Run.
func RunTapped(sc Scenario, p Params, tap RefTap) (*Result, error) {
	return Run(context.Background(), sc, p, tap, nil)
}

// schemeFor constructs the scenario's native translation scheme over the
// run's shared hierarchy and MSHR file.
func schemeFor(sc Scenario, p Params, h *cache.Hierarchy, mshr *cache.MSHRFile, tr *obs.Tracer) (mmu.Scheme, error) {
	return mmu.New(sc.SchemeName(), mmu.Config{
		Hier:           h,
		MSHR:           mshr,
		PWC:            p.PWC,
		ClusteredTLB:   sc.ClusteredTLB,
		ASAP:           sc.ASAP.Native,
		RangeRegisters: p.RangeRegisters,
		FlushOnSwitch:  p.FlushOnSwitch,
		Trace:          tr,
	})
}

// process exposes a native assembly as the per-address-space state a
// translation scheme consumes.
func (a *nativeAssembly) process() *mmu.Process {
	layout, frames := a.layout, a.frames
	return &mmu.Process{
		Table: a.table,
		Frame: func(vpn uint64) uint64 { return uint64(frames.Frame(vpn)) },
		Neighbors: func(vpn uint64) (uint64, bool) {
			if !layout.PresentVPN(vpn) {
				return 0, false
			}
			return uint64(frames.Frame(vpn)), true
		},
		Descs: a.descs,
	}
}

// coChunk is how many co-runner addresses one AccessAll call takes: bursts
// are drawn into a buffer of this size, so a burst of any length costs a
// fixed amount of memory.
const coChunk = 64

// coTraffic issues co-runner-style request bursts into the shared hierarchy:
// the SMT co-runner's, paced by application progress, and the multi-process
// quantum replay's. A burst of n requests from a stream is exactly n
// h.Access(stream.Next()) calls in order; it allocates nothing.
type coTraffic struct {
	h     *cache.Hierarchy
	every float64 // Params.CoAccessCycles
	debt  float64 // SMT requests owed, always below 1 between calls
	buf   [coChunk]mem.PhysAddr
}

// smt issues the SMT co-runner's requests for cycles of application
// progress: one per CoAccessCycles, carrying the fraction to the next call.
// Taking the whole requests at once leaves debt as the same double as
// subtracting 1 per request would, since x-1 is exact for 1 ≤ x < 2^53.
func (c *coTraffic) smt(co *workload.CoRunner, cycles float64) {
	c.debt += cycles / c.every
	n := int(c.debt)
	c.debt -= float64(n)
	c.burst(co, n)
}

// burst issues n requests drawn from stream, a chunk at a time.
func (c *coTraffic) burst(stream *workload.CoRunner, n int) {
	for n > 0 {
		chunk := c.buf[:min(n, len(c.buf))]
		for i := range chunk {
			chunk[i] = stream.Next()
		}
		c.h.AccessAll(chunk)
		n -= len(chunk)
	}
}

// proc is one process on the simulated core: its spec (whose timing model
// the loop charges), its reference stream, and — in a multi-process mix — the
// data-traffic stream that models its cache footprint (see setupMix). Its
// address-space state (page table, frame map, descriptor file) is attached
// to the translation scheme under the process's pid, its index in the
// schedule.
type proc struct {
	spec workload.Spec
	src  refSource
	data *workload.CoRunner
}

// schedule is what a setup builds: the translation scheme and the processes
// time-sharing the core. A lone process has no scheduler, so its schedule
// never switches; no workload.Scheduler is built for it, because that
// constructor rejects the zero QuantumRefs single-process Params may carry.
type schedule struct {
	scheme mmu.Scheme
	procs  []*proc
	sched  *workload.Scheduler // nil: procs[0] runs alone
}

// drive replays a schedule's reference streams through its scheme: the one
// measurement loop behind every run.
func drive(ctx context.Context, sc Scenario, p Params, sch *schedule, h *cache.Hierarchy, res *Result, tr *obs.Tracer) error {
	var co *workload.CoRunner
	if sc.Colocated {
		co = workload.NewCoRunner(coRunnerBase.Addr(), coRunnerSpan*mem.PageSize, p.Seed^0xc0)
	}
	var wr walker.Result
	var now int64
	measure := newMeter(p)
	var walksTotal, sliceRefs int
	traffic := coTraffic{h: h, every: p.CoAccessCycles}
	measuring, dry := false, false
	schemeName := sc.SchemeName()
	s, sched, cur := sch.scheme, sch.sched, sch.procs[0]
	for refs := 0; refs < p.MaxRefs; refs++ {
		if refs&ctxCheckMask == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if !measuring && walksTotal >= p.WarmupWalks {
			measure.begin(s.Counters())
			measuring = true
			if tr != nil {
				tr.MeasureBegin(now)
			}
		}
		if measuring && int(measure.walks) >= p.MeasureWalks {
			break
		}
		if sched != nil {
			if pid, switched := sched.Tick(); switched {
				// Replay the outgoing quantum's data-side cache footprint:
				// one request per CoAccessCycles of the quantum's nominal
				// progress (stall + retire time per reference; walk time is
				// excluded so the replay is policy-independent).
				nominal := cur.spec.DataStallCycles + cur.spec.InstrPerRef*p.CPIBase
				traffic.burst(cur.data, int(float64(sliceRefs)*nominal/p.CoAccessCycles))
				sliceRefs = 0
				cur = sch.procs[pid]
				moved := s.Switch(pid)
				cost := p.SwitchCycles + p.DescSwapCycles*float64(moved)
				if tr != nil {
					tr.ProcessSwitch(now, pid, moved, int64(cost))
				}
				now += int64(cost)
				if measuring {
					measure.contextSwitch(cost)
				}
			}
			sliceRefs++
		}
		va, ok := cur.src.Next()
		if !ok {
			dry = true // the replayed trace ran dry
			break
		}
		refCycles := cur.spec.DataStallCycles + cur.spec.InstrPerRef*p.CPIBase
		if s.Translate(now, va, &wr) {
			if tr != nil {
				tr.WalkEnd(now, wr.Cycles, schemeName, measuring)
			}
			now += int64(wr.Cycles)
			refCycles += float64(wr.Cycles)
			walksTotal++
			if measuring {
				measure.walk(&wr, res)
			}
		}
		// Following the paper's methodology, the application's own data
		// accesses do not flow through the simulated hierarchy; page-walk
		// traffic and the SMT co-runner's stream do (§4). The co-runner
		// issues one random request per CoAccessCycles of app progress.
		if co != nil {
			traffic.smt(co, refCycles)
		}
		now += int64(cur.spec.DataStallCycles)
		if measuring {
			measure.access(&cur.spec)
		}
	}
	if !dry && int(measure.walks) < p.MeasureWalks {
		return fmt.Errorf("sim: reached MaxRefs (%d references) with %d of %d measured walks (scenario %s)",
			p.MaxRefs, measure.walks, p.MeasureWalks, sc.Name())
	}
	if !measuring {
		// The replayed trace ran dry before warmup completed: report a clean
		// empty window rather than folding warmup into the measurements.
		measure.begin(s.Counters())
		if tr != nil {
			tr.MeasureBegin(now)
		}
	}
	if tr != nil {
		tr.MeasureEnd(now)
	}
	measure.finish(res, s.Counters())
	return nil
}

// setupNative builds a native process — synthetic, or a registered trace's
// capture — as a one-process schedule.
func setupNative(sc Scenario, p Params, h *cache.Hierarchy, mshr *cache.MSHRFile, tap RefTap, tr *obs.Tracer) (*schedule, error) {
	var asm *nativeAssembly
	var src refSource
	if sc.Trace != "" {
		tr, err := RegisteredTrace(sc.Trace)
		if err != nil {
			return nil, err
		}
		if asm, err = traceNativeFor(tr, sc.ASAP.Native.Enabled(), p); err != nil {
			return nil, err
		}
		src = tr.Replay()
	} else {
		var err error
		if asm, err = nativeFor(sc.Workload, sc.ASAP.Native.Enabled(), p); err != nil {
			return nil, err
		}
		src = genSource{workload.NewGenerator(sc.Workload, asm.layout, p.Seed)}
	}
	src, err := tapped(src, tap, 0, sc.Workload, asm.layout, p.Seed)
	if err != nil {
		return nil, err
	}
	s, err := schemeFor(sc, p, h, mshr, tr)
	if err != nil {
		return nil, err
	}
	s.Attach(0, asm.process())
	s.Boot(0)
	tr.DefineProcess(0, sc.Workload.Name)
	return &schedule{scheme: s, procs: []*proc{{spec: sc.Workload, src: src}}}, nil
}

// setupVirt builds a virtual machine's nested translation as a one-process
// schedule.
func setupVirt(sc Scenario, p Params, h *cache.Hierarchy, mshr *cache.MSHRFile, tap RefTap, tr *obs.Tracer) (*schedule, error) {
	asm, err := virtFor(sc.Workload, sc.ASAP.Guest.Enabled(), sc.ASAP.Host.Enabled(), sc.HostHugePages, p)
	if err != nil {
		return nil, err
	}
	s := mmu.NewNested(mmu.NestedConfig{
		Hier:           h,
		MSHR:           mshr,
		PWC:            p.PWC,
		ClusteredTLB:   sc.ClusteredTLB,
		Guest:          sc.ASAP.Guest,
		Host:           sc.ASAP.Host,
		GuestDescs:     asm.guestDescs,
		HostDescs:      asm.hostDescs,
		RangeRegisters: p.RangeRegisters,
		GuestPT:        asm.guestPT,
		HostPT:         asm.ept,
		Translate:      asm.gmap.Translate,
		DataGPA:        asm.dataGPA,
		Trace:          tr,
	})
	src, err := tapped(genSource{workload.NewGenerator(sc.Workload, asm.layout, p.Seed)},
		tap, 0, sc.Workload, asm.layout, p.Seed)
	if err != nil {
		return nil, err
	}
	tr.DefineProcess(0, sc.Workload.Name)
	return &schedule{scheme: s, procs: []*proc{{spec: sc.Workload, src: src}}}, nil
}

// meter accumulates measured-window statistics and the execution-time model.
type meter struct {
	p               Params
	accesses        uint64
	walks           uint64
	walkCycles      uint64
	dataCycles      float64
	switchCycles    float64
	switches        uint64
	instr           float64 // instructions retired, summed per reference
	tlbAccesses0    uint64
	tlbMisses0      uint64
	flushes0        uint64
	lookups0        uint64
	rangeHits0      uint64
	overflowed0     uint64
	hostLookups0    uint64
	hostHits0       uint64
	hostOverflowed0 uint64
	dropped0        uint64
}

func newMeter(p Params) *meter {
	return &meter{p: p}
}

// begin snapshots the scheme's cumulative counters at the warmup/measure
// boundary so finish can report measured-window deltas. Counters the running
// scheme has no counterpart for are zero in every snapshot, so their deltas
// vanish — the meter needs no knowledge of which scheme ran.
func (m *meter) begin(c mmu.Counters) {
	m.tlbAccesses0 = c.TLBAccesses
	m.tlbMisses0 = c.TLBL2Misses
	m.flushes0 = c.TLBFlushes
	m.lookups0 = c.Lookups
	m.rangeHits0 = c.Hits
	m.overflowed0 = c.Overflowed
	m.hostLookups0 = c.HostLookups
	m.hostHits0 = c.HostHits
	m.hostOverflowed0 = c.HostOverflowed
	m.dropped0 = c.MSHRDropped
}

// access accounts one measured reference of a process running spec.
// Instructions are summed per reference because a mix's processes retire
// different counts per access. For a lone process the sum equals accesses ×
// InstrPerRef exactly only because every shipped spec's InstrPerRef is an
// exact binary fraction (3.5, 4, 5, 8, 9), so no partial sum rounds.
func (m *meter) access(spec *workload.Spec) {
	m.accesses++
	m.dataCycles += spec.DataStallCycles
	m.instr += spec.InstrPerRef
}

// contextSwitch accounts one measured-window switch and its modeled cost.
func (m *meter) contextSwitch(cycles float64) {
	m.switches++
	m.switchCycles += cycles
}

func (m *meter) walk(wr *walker.Result, res *Result) {
	m.walks++
	m.walkCycles += uint64(wr.Cycles)
	res.PrefetchIssued += uint64(wr.PrefetchIssued)
	res.PrefetchCovered += uint64(wr.PrefetchCovered)
	for _, a := range wr.Accesses[:wr.N] {
		if a.Dim == walker.DimNative {
			res.Breakdown.Add(int(a.Level), a.Served)
		}
	}
}

func (m *meter) finish(res *Result, c mmu.Counters) {
	res.Accesses = m.accesses
	res.Walks = m.walks
	res.WalkCycles = m.walkCycles
	if m.walks > 0 {
		res.AvgWalkLat = float64(m.walkCycles) / float64(m.walks)
	}
	if n := c.TLBAccesses - m.tlbAccesses0; n > 0 {
		res.TLBMissRatio = float64(c.TLBL2Misses-m.tlbMisses0) / float64(n)
	}
	if m.instr > 0 {
		res.MPKI = float64(c.TLBL2Misses-m.tlbMisses0) / (m.instr / 1000)
	}
	coreCycles := m.instr * m.p.CPIBase
	res.TotalCycles = coreCycles + m.dataCycles + float64(m.walkCycles) + m.switchCycles
	if res.TotalCycles > 0 {
		res.WalkFraction = float64(m.walkCycles) / res.TotalCycles
	}
	if lookups := c.Lookups - m.lookups0; lookups > 0 {
		res.RangeHitRate = float64(c.Hits-m.rangeHits0) / float64(lookups)
	}
	res.RangeOverflowed += c.Overflowed - m.overflowed0
	if lookups := c.HostLookups - m.hostLookups0; lookups > 0 {
		res.HostRangeHitRate = float64(c.HostHits-m.hostHits0) / float64(lookups)
	}
	res.RangeOverflowed += c.HostOverflowed - m.hostOverflowed0
	res.MSHRDropped = c.MSHRDropped - m.dropped0
	res.Switches = m.switches
	res.ShootdownFlushes = c.TLBFlushes - m.flushes0
}
