package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/walker"
	"repro/internal/workload"
)

// probeReps is how many timed repetitions a probe's value is the median of.
const probeReps = 5

// Machine address plan of the probe image: disjoint frame areas like the
// simulator's, so page-table, region, data and co-runner lines never alias.
const (
	regionBase = mem.Frame(1) << 24 // sorted ASAP regions
	ptBase     = mem.Frame(1) << 26 // scattered page-table nodes
	ptSpan     = uint64(1) << 22
	dataBase   = mem.Frame(1) << 28
	coBase     = mem.Frame(1) << 30 // co-runner working set
	coSpan     = uint64(1) << 22    // frames
)

// probeSpec is the workload whose process image the probes run against:
// memcached at 80 GB, the paper's Table 1 subject, present in three grids.
const probeSpec = "mc80"

// probeEnv holds the seed-derived inputs the probes draw from: a native
// process image assembled through the layers' public constructors the way
// the simulator assembles one, its reference stream, the page-table entry
// addresses that stream's walks read, a co-runner stream and an in-memory
// trace of the references.
type probeEnv struct {
	calls     int
	seed      uint64
	spec      workload.Spec
	layout    *workload.Layout
	table     *pt.Table
	frames    *workload.FrameMap
	vas       []mem.VirtAddr
	pfns      []uint64
	walkAddrs []mem.PhysAddr
	coAddrs   []mem.PhysAddr
	trace     []byte
	// buildSpecs are the distinct workloads a grid's cells build.
	buildSpecs []workload.Spec
}

// buildTable lays out spec and populates its page table over scattered
// frames.
func buildTable(spec workload.Spec, seed uint64) (*workload.Layout, *pt.Table, error) {
	layout, err := workload.BuildLayout(spec)
	if err != nil {
		return nil, nil, err
	}
	table, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1}, pt.NewScatterAlloc(ptBase, ptSpan, seed), false)
	if err != nil {
		return nil, nil, err
	}
	layout.Populate(table)
	return layout, table, nil
}

func newProbeEnv(seed uint64, calls int, cells []cell) (*probeEnv, error) {
	specs, err := specsByName(probeSpec)
	if err != nil {
		return nil, err
	}
	e := &probeEnv{calls: calls, seed: seed, spec: specs[0]}
	if e.layout, e.table, err = buildTable(e.spec, seed); err != nil {
		return nil, err
	}
	e.frames = &workload.FrameMap{Base: dataBase, Span: max(8, mem.NextPow2(e.layout.TotalResident*5/4)),
		Contig8: e.spec.Contig8, Salt: seed}
	g := workload.NewGenerator(e.spec, e.layout, seed)
	co := workload.NewCoRunner(coBase.Addr(), coSpan*mem.PageSize, seed^0xc0)
	for i := 0; i < calls; i++ {
		va := g.Next()
		e.vas = append(e.vas, va)
		e.pfns = append(e.pfns, uint64(e.frames.Frame(va.VPN())))
		e.coAddrs = append(e.coAddrs, co.Next())
	}
	for _, va := range e.vas {
		wr := e.table.Walk(va)
		for _, ref := range wr.Entries[:wr.N] {
			e.walkAddrs = append(e.walkAddrs, ref.EntryAddr)
		}
		if len(e.walkAddrs) >= calls {
			e.walkAddrs = e.walkAddrs[:calls]
			break
		}
	}

	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Spec: e.spec, Seed: seed, Areas: e.layout.Areas()}, false)
	if err != nil {
		return nil, err
	}
	for _, va := range e.vas {
		if err := tw.Add(va); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	e.trace = buf.Bytes()

	seen := map[string]bool{}
	for _, c := range cells {
		mix, err := workload.MixFor(c.sc.Workload, c.sc.Mix, max(1, c.p.Processes))
		if err != nil {
			return nil, err
		}
		for _, s := range mix.Specs {
			if !seen[s.Name] {
				seen[s.Name] = true
				e.buildSpecs = append(e.buildSpecs, s)
			}
		}
	}
	sort.Slice(e.buildSpecs, func(i, j int) bool { return e.buildSpecs[i].Name < e.buildSpecs[j].Name })
	return e, nil
}

// process exposes the image as the per-address-space state a translation
// scheme consumes.
func (e *probeEnv) process() *mmu.Process {
	return &mmu.Process{
		Table: e.table,
		Frame: func(vpn uint64) uint64 { return uint64(e.frames.Frame(vpn)) },
		Neighbors: func(vpn uint64) (uint64, bool) {
			if !e.layout.PresentVPN(vpn) {
				return 0, false
			}
			return uint64(e.frames.Frame(vpn)), true
		},
	}
}

// sink keeps probe results observable so the compiler cannot drop the calls.
var sink uint64

// probe times one public call of one layer. run prepares the probe's state
// and returns a body that makes calls calls; the metric's unit is the suffix
// of its name.
type probe struct {
	name string
	run  func(e *probeEnv) (calls int, body func(), err error)
}

var probes = []probe{
	{"cache.llc_lookupinsert_ns", func(e *probeEnv) (int, func(), error) {
		llc := cache.DefaultConfig().L3
		s := cache.NewSetAssoc(llc.SizeBytes/mem.LineBytes, llc.Ways)
		return len(e.coAddrs), func() {
			for _, a := range e.coAddrs {
				s.LookupInsert(a.Line())
			}
		}, nil
	}},
	{"cache.access_corunner_ns", func(e *probeEnv) (int, func(), error) {
		return accessProbe(e.coAddrs)
	}},
	{"cache.access_walk_ns", func(e *probeEnv) (int, func(), error) {
		return accessProbe(e.walkAddrs)
	}},
	{"cache.where_ns", func(e *probeEnv) (int, func(), error) {
		h := cache.NewHierarchy(cache.DefaultConfig())
		for _, a := range e.walkAddrs {
			h.Access(a)
		}
		return len(e.walkAddrs), func() {
			for _, a := range e.walkAddrs {
				sink += uint64(h.Where(a))
			}
		}, nil
	}},
	{"cache.new_hierarchy_us", func(e *probeEnv) (int, func(), error) {
		n := max(2, e.calls/12500)
		return n, func() {
			for i := 0; i < n; i++ {
				sink += uint64(cache.NewHierarchy(cache.DefaultConfig()).Config().MemLatency)
			}
		}, nil
	}},
	{"workload.next_ns", func(e *probeEnv) (int, func(), error) {
		g := workload.NewGenerator(e.spec, e.layout, e.seed^1)
		return e.calls, func() {
			for i := 0; i < e.calls; i++ {
				sink += uint64(g.Next())
			}
		}, nil
	}},
	{"workload.corunner_next_ns", func(e *probeEnv) (int, func(), error) {
		co := workload.NewCoRunner(coBase.Addr(), coSpan*mem.PageSize, e.seed^2)
		return e.calls, func() {
			for i := 0; i < e.calls; i++ {
				sink += uint64(co.Next())
			}
		}, nil
	}},
	{"workload.sched_tick_ns", func(e *probeEnv) (int, func(), error) {
		s := workload.NewScheduler(4, sim.DefaultParams().QuantumRefs, e.seed^3)
		return e.calls, func() {
			for i := 0; i < e.calls; i++ {
				pid, _ := s.Tick()
				sink += uint64(pid)
			}
		}, nil
	}},
	{"pt.walk_ns", func(e *probeEnv) (int, func(), error) {
		return len(e.vas), func() {
			for _, va := range e.vas {
				sink += uint64(e.table.Walk(va).N)
			}
		}, nil
	}},
	{"pt.build_ms", func(e *probeEnv) (int, func(), error) {
		for _, s := range e.buildSpecs {
			if _, _, err := buildTable(s, e.seed); err != nil {
				return 0, nil, err
			}
		}
		return len(e.buildSpecs), func() {
			for _, s := range e.buildSpecs {
				_, t, _ := buildTable(s, e.seed) // cannot fail: built above
				sink += t.TotalNodes()
			}
		}, nil
	}},
	{"pwc.lookup_ns", func(e *probeEnv) (int, func(), error) {
		c := pwc.New(pwc.DefaultConfig())
		for _, va := range e.vas {
			for level := 2; level <= 4; level++ {
				c.Insert(va, level)
			}
		}
		return len(e.vas), func() {
			for _, va := range e.vas {
				sink += uint64(c.Lookup(va, 4))
			}
		}, nil
	}},
	{"tlb.lookup_ns", func(e *probeEnv) (int, func(), error) {
		t := tlb.NewTwoLevel(false)
		for i, va := range e.vas {
			t.InsertVA(va, false, e.pfns[i], nil)
		}
		return len(e.vas), func() {
			for i, va := range e.vas {
				if t.LookupVA(va, e.pfns[i], nil) {
					sink++
				}
			}
		}, nil
	}},
	{"tlb.flush_us", func(e *probeEnv) (int, func(), error) {
		t := tlb.NewTwoLevel(false)
		n := max(2, e.calls/100)
		return n, func() {
			for i := 0; i < n; i++ {
				t.Flush()
			}
		}, nil
	}},
	{"walker.walk_ns", func(e *probeEnv) (int, func(), error) {
		p := sim.DefaultParams()
		w := &walker.Walker{H: cache.NewHierarchy(p.Cache), PWC: pwc.New(p.PWC), MSHR: cache.NewMSHRFile(p.MSHRs)}
		var res walker.Result
		var now int64
		return len(e.vas), func() {
			for _, va := range e.vas {
				w.Walk(now, e.table, va, &res)
				now += int64(res.Cycles)
			}
		}, nil
	}},
	{"core.targets_ns", func(e *probeEnv) (int, func(), error) {
		p := sim.DefaultParams()
		eng := core.NewEngine(p.RangeRegisters, core.Config{P1: true, P2: true})
		reserve := mem.NewBump(regionBase, uint64(1)<<24)
		for _, area := range e.layout.Big[:min(len(e.layout.Big), p.RangeRegisters)] {
			setup, err := core.SetupVMA(area, []int{1, 2}, reserve)
			if err != nil {
				return 0, nil, err
			}
			eng.Install(setup.Descriptor)
		}
		var buf []core.Target
		return len(e.vas), func() {
			for _, va := range e.vas {
				buf = eng.Targets(va, buf[:0])
				sink += uint64(len(buf))
			}
		}, nil
	}},
	{"mmu.switch_flush_us", switchProbe(true)},
	{"mmu.switch_asid_us", switchProbe(false)},
	{"mmu.translate_asap_ns", translateProbe("asap")},
	{"mmu.translate_victima_ns", translateProbe("victima")},
	{"mmu.translate_revelator_ns", translateProbe("revelator")},
	{"trace.load_ms", func(e *probeEnv) (int, func(), error) {
		if _, err := trace.Load(bytes.NewReader(e.trace)); err != nil {
			return 0, nil, err
		}
		return 1, func() {
			tr, _ := trace.Load(bytes.NewReader(e.trace)) // cannot fail: loaded above
			sink += tr.Count
		}, nil
	}},
	{"trace.replay_ns", func(e *probeEnv) (int, func(), error) {
		tr, err := trace.Load(bytes.NewReader(e.trace))
		if err != nil {
			return 0, nil, err
		}
		return int(tr.Count), func() {
			r := tr.Replay()
			for va, ok := r.Next(); ok; va, ok = r.Next() {
				sink += uint64(va)
			}
		}, nil
	}},
}

// accessProbe times Hierarchy.Access over addrs on one hierarchy.
func accessProbe(addrs []mem.PhysAddr) (int, func(), error) {
	h := cache.NewHierarchy(cache.DefaultConfig())
	return len(addrs), func() {
		for _, a := range addrs {
			_, lat := h.Access(a)
			sink += uint64(lat)
		}
	}, nil
}

// newScheme builds a translation scheme over a fresh platform with the image
// attached as process 0 (and 1, for switching) and booted.
func newScheme(e *probeEnv, name string, flushOnSwitch bool) (mmu.Scheme, error) {
	p := sim.DefaultParams()
	s, err := mmu.New(name, mmu.Config{
		Hier: cache.NewHierarchy(p.Cache), MSHR: cache.NewMSHRFile(p.MSHRs), PWC: p.PWC,
		RangeRegisters: p.RangeRegisters, FlushOnSwitch: flushOnSwitch,
	})
	if err != nil {
		return nil, err
	}
	s.Attach(0, e.process())
	s.Attach(1, e.process())
	s.Boot(0)
	return s, nil
}

func translateProbe(name string) func(e *probeEnv) (int, func(), error) {
	return func(e *probeEnv) (int, func(), error) {
		s, err := newScheme(e, name, false)
		if err != nil {
			return 0, nil, err
		}
		var wr walker.Result
		var now int64
		return len(e.vas), func() {
			for _, va := range e.vas {
				if s.Translate(now, va, &wr) {
					now += int64(wr.Cycles)
				}
				now++
			}
		}, nil
	}
}

// switchProbe times context switches between the two attached processes
// under the flush-on-switch or the ASID-retagging policy.
func switchProbe(flush bool) func(e *probeEnv) (int, func(), error) {
	return func(e *probeEnv) (int, func(), error) {
		s, err := newScheme(e, "asap", flush)
		if err != nil {
			return 0, nil, err
		}
		n := max(2, e.calls/100)
		pid := 0
		return n, func() {
			for i := 0; i < n; i++ {
				pid ^= 1
				sink += uint64(s.Switch(pid))
			}
		}, nil
	}
}

// probeUnit splits a probe's metric name into the probe and its unit suffix,
// and returns how many nanoseconds one unit is.
func probeUnit(name string) (probe, unit string, ns float64) {
	i := strings.LastIndexByte(name, '_')
	probe, unit = name[:i], name[i+1:]
	switch unit {
	case "us":
		return probe, unit, 1e3
	case "ms":
		return probe, unit, 1e6
	}
	return probe, unit, 1
}

// timeProbe runs body once to warm it, then probeReps times, and returns the
// median nanoseconds per call.
func timeProbe(calls int, body func()) float64 {
	body()
	ns := make([]float64, probeReps)
	for i := range ns {
		t0 := time.Now()
		body()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return median(ns)
}

// runProbes times every probe, each under its own span.
func runProbes(o options, cells []cell, rec *spanRecorder, parent int) ([]metric, error) {
	e, err := newProbeEnv(o.seed, o.probeCalls, cells)
	if err != nil {
		return nil, fmt.Errorf("probe image: %w", err)
	}
	out := make([]metric, 0, len(probes))
	for _, p := range probes {
		id := rec.begin(parent, p.name, 0, nil)
		calls, body, err := p.run(e)
		if err != nil {
			rec.end(id)
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		ns := timeProbe(calls, body)
		rec.end(id)
		_, unit, scale := probeUnit(p.name)
		out = append(out, metric{name: p.name, unit: unit, value: ns / scale, n: probeReps})
	}
	return out, nil
}
