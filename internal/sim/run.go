package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/walker"
	"repro/internal/workload"
)

// ctxCheckMask paces cancellation checks in the reference loops: the context
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

// Run simulates one scenario cell and returns its metrics.
func Run(sc Scenario, p Params) (*Result, error) {
	return RunTappedCtx(context.Background(), sc, p, nil)
}

// RunCtx is Run under a context: the reference loops poll ctx every few
// thousand references (see ctxCheckMask) and abort with ctx.Err() when it is
// cancelled or its deadline passes, so a stuck or oversized cell cannot hold
// a worker hostage. A cancelled run returns no partial metrics — callers that
// want partial grids handle cancellation per cell (see internal/asapd).
func RunCtx(ctx context.Context, sc Scenario, p Params) (*Result, error) {
	return RunTappedCtx(ctx, sc, p, nil)
}

// RunTapped simulates one scenario cell with an optional reference tap
// observing the reference stream (nil behaves exactly like Run — the tap is
// pure observation and never perturbs the simulation).
func RunTapped(sc Scenario, p Params, tap RefTap) (*Result, error) {
	return RunTappedCtx(context.Background(), sc, p, tap)
}

// RunTappedCtx is RunTapped under a context (see RunCtx for the cancellation
// contract).
func RunTappedCtx(ctx context.Context, sc Scenario, p Params, tap RefTap) (*Result, error) {
	return RunObserved(ctx, sc, p, tap, nil)
}

// RunObserved is the fully instrumented entry point: RunTappedCtx plus an
// optional cycle-domain event tracer observing the translation machinery
// (nil behaves exactly like RunTappedCtx — observation never perturbs the
// simulation, so metrics are identical with and without a tracer).
func RunObserved(ctx context.Context, sc Scenario, p Params, tap RefTap, tr *obs.Tracer) (*Result, error) {
	res := &Result{Scenario: sc}
	if sc.Colocated || p.Processes > 1 {
		if c := p.CoAccessCycles; !(c > 0) || math.IsInf(c, 1) {
			return res, fmt.Errorf("sim: CoAccessCycles must be positive and finite, got %v (scenario %s)", c, sc.Name())
		}
	}
	h := cache.NewHierarchy(p.Cache)
	mshr := cache.NewMSHRFile(p.MSHRs)

	if err := mmu.Validate(sc.Scheme); err != nil {
		return res, err
	}
	if sc.SchemeName() != "asap" {
		// Rival schemes replace the whole miss-handling path; combinations
		// that would silently drop a requested dimension are rejected.
		if sc.Virtualized {
			return res, fmt.Errorf("sim: scheme %s is native-only (scenario %s)", sc.SchemeName(), sc.Name())
		}
		if sc.ASAP.Enabled() {
			return res, fmt.Errorf("sim: scheme %s does not combine with ASAP prefetching (scenario %s)", sc.SchemeName(), sc.Name())
		}
	}

	var co *workload.CoRunner
	if sc.Colocated {
		co = workload.NewCoRunner(coRunnerBase.Addr(), coRunnerSpan*mem.PageSize, p.Seed^0xc0)
	}

	if sc.Trace != "" && (sc.Virtualized || p.Processes > 1) {
		return res, fmt.Errorf("sim: trace replay is native and single-process (scenario %s)", sc.Name())
	}
	if p.Processes > 1 {
		if sc.Virtualized {
			return res, fmt.Errorf("sim: multi-process scheduling is native-only (Processes=%d with Virtualized)", p.Processes)
		}
		return res, runMulti(ctx, sc, p, h, mshr, co, res, tap, tr)
	}
	if sc.Virtualized {
		return res, runVirt(ctx, sc, p, h, mshr, co, res, tap, tr)
	}
	return res, runNative(ctx, sc, p, h, mshr, co, res, tap, tr)
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

// drive replays a single-process reference stream through the scheme: the
// shared measurement loop of the native, virtualized and trace-driven runs.
func drive(ctx context.Context, sc Scenario, p Params, s mmu.Scheme, src refSource,
	h *cache.Hierarchy, co *workload.CoRunner, res *Result, tr *obs.Tracer) error {
	var wr walker.Result
	var now int64
	measure := newMeter(sc.Workload, p)
	var walksTotal, refs int
	traffic := coTraffic{h: h, every: p.CoAccessCycles}
	measuring := false
	scheme := sc.SchemeName()
	for refs = 0; refs < p.MaxRefs; refs++ {
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
		va, ok := src.Next()
		if !ok {
			break // the replayed trace ran dry
		}
		refCycles := sc.Workload.DataStallCycles + sc.Workload.InstrPerRef*p.CPIBase
		if s.Translate(now, va, &wr) {
			if tr != nil {
				tr.WalkEnd(now, wr.Cycles, scheme, measuring)
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
		now += int64(sc.Workload.DataStallCycles)
		if measuring {
			measure.access()
		}
	}
	if !measuring {
		// The stream ended (a short trace, or MaxRefs) before warmup
		// completed: report a clean empty window rather than folding warmup
		// into the measurements.
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

func runNative(ctx context.Context, sc Scenario, p Params, h *cache.Hierarchy,
	mshr *cache.MSHRFile, co *workload.CoRunner, res *Result, tap RefTap, tr *obs.Tracer) error {
	var asm *nativeAssembly
	var src refSource
	if sc.Trace != "" {
		tr, err := traceByDigest(sc.Trace)
		if err != nil {
			return err
		}
		if asm, err = traceNativeFor(tr, sc.ASAP.Native.Enabled(), p); err != nil {
			return err
		}
		src = tr.Replay()
	} else {
		var err error
		if asm, err = nativeFor(sc.Workload, sc.ASAP.Native.Enabled(), p); err != nil {
			return err
		}
		src = genSource{workload.NewGenerator(sc.Workload, asm.layout, p.Seed)}
	}
	src, err := tapped(src, tap, 0, sc.Workload, asm.layout, p.Seed)
	if err != nil {
		return err
	}
	s, err := schemeFor(sc, p, h, mshr, tr)
	if err != nil {
		return err
	}
	s.Attach(0, asm.process())
	s.Boot(0)
	tr.DefineProcess(0, sc.Workload.Name)
	return drive(ctx, sc, p, s, src, h, co, res, tr)
}

func runVirt(ctx context.Context, sc Scenario, p Params, h *cache.Hierarchy,
	mshr *cache.MSHRFile, co *workload.CoRunner, res *Result, tap RefTap, tr *obs.Tracer) error {
	asm, err := virtFor(sc.Workload, sc.ASAP.Guest.Enabled(), sc.ASAP.Host.Enabled(), sc.HostHugePages, p)
	if err != nil {
		return err
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
		return err
	}
	tr.DefineProcess(0, sc.Workload.Name)
	return drive(ctx, sc, p, s, src, h, co, res, tr)
}

// meter accumulates measured-window statistics and the execution-time model.
type meter struct {
	p               Params
	spec            workload.Spec
	accesses        uint64
	walks           uint64
	walkCycles      uint64
	dataCycles      float64
	switchCycles    float64
	switches        uint64
	instr           float64 // per-access instruction sum (multi-process only)
	multi           bool    // accesses span processes with differing specs
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

func newMeter(spec workload.Spec, p Params) *meter {
	return &meter{p: p, spec: spec}
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

func (m *meter) access() {
	m.accesses++
	m.dataCycles += m.spec.DataStallCycles
}

// accessOf accounts one reference of the currently scheduled process. Unlike
// access, it accumulates instructions per reference, because a mix's
// processes retire different instruction counts per access; finish then uses
// the accumulated sum instead of accesses × the primary spec's rate.
func (m *meter) accessOf(spec workload.Spec) {
	m.accesses++
	m.dataCycles += spec.DataStallCycles
	m.instr += spec.InstrPerRef
	m.multi = true
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
	instructions := float64(m.accesses) * m.spec.InstrPerRef
	if m.multi {
		instructions = m.instr
	}
	if instructions > 0 {
		res.MPKI = float64(c.TLBL2Misses-m.tlbMisses0) / (instructions / 1000)
	}
	coreCycles := instructions * m.p.CPIBase
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
