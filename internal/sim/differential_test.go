package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pwc"
	"repro/internal/tlb"
	"repro/internal/walker"
	"repro/internal/workload"
)

// inlinedCounters reads the translation counters straight off the hardware
// models, independently of mmu — the pre-refactor meter arguments.
func inlinedCounters(tl *tlb.TwoLevel, engine *core.Engine, mshr *cache.MSHRFile) mmu.Counters {
	c := mmu.Counters{
		TLBAccesses: tl.Accesses,
		TLBL2Misses: tl.L2Misses,
		TLBFlushes:  tl.Flushes,
		MSHRDropped: mshr.Dropped(),
	}
	if engine != nil {
		c.Lookups = engine.Lookups()
		c.Hits = engine.RangeHits()
		c.Overflowed = engine.Overflowed()
	}
	return c
}

// inlinedRunNative is a faithful copy of the native run loop as it existed
// before the translation path moved behind mmu.Scheme: TLB, PWC, walker and
// engine wired inline, the engine loaded descriptor by descriptor, counters
// read directly. It is the refactor's reference implementation.
func inlinedRunNative(sc Scenario, p Params) (*Result, error) {
	h := cache.NewHierarchy(p.Cache)
	tl := tlb.NewTwoLevel(sc.ClusteredTLB)
	mshr := cache.NewMSHRFile(p.MSHRs)
	res := &Result{Scenario: sc}
	var co *workload.CoRunner
	if sc.Colocated {
		co = workload.NewCoRunner(coRunnerBase.Addr(), coRunnerSpan*mem.PageSize, p.Seed^0xc0)
	}
	asm, err := nativeFor(sc.Workload, sc.ASAP.Native.Enabled(), p)
	if err != nil {
		return nil, err
	}
	var engine *core.Engine
	if sc.ASAP.Native.Enabled() {
		engine = core.NewEngine(p.RangeRegisters, sc.ASAP.Native)
		for _, d := range asm.descs {
			engine.Install(d)
		}
	}
	pw := pwc.New(p.PWC)
	w := &walker.Walker{H: h, PWC: pw, ASAP: engine, MSHR: mshr}
	layout, frames := asm.layout, asm.frames
	neighbors := func(vpn uint64) (uint64, bool) {
		if !layout.PresentVPN(vpn) {
			return 0, false
		}
		return uint64(frames.Frame(vpn)), true
	}
	gen := workload.NewGenerator(sc.Workload, layout, p.Seed)

	var wr walker.Result
	var now int64
	measure := newMeter(p)
	var walksTotal, refs int
	var coDebt float64
	measuring := false
	for refs = 0; refs < p.MaxRefs; refs++ {
		if !measuring && walksTotal >= p.WarmupWalks {
			measure.begin(inlinedCounters(tl, engine, mshr))
			measuring = true
		}
		if measuring && int(measure.walks) >= p.MeasureWalks {
			break
		}
		va := gen.Next()
		pfn := uint64(frames.Frame(va.VPN()))
		refCycles := sc.Workload.DataStallCycles + sc.Workload.InstrPerRef*p.CPIBase
		if !tl.LookupVA(va, pfn, neighbors) {
			w.Walk(now, asm.table, va, &wr)
			now += int64(wr.Cycles)
			refCycles += float64(wr.Cycles)
			tl.InsertVA(va, wr.Huge, pfn, neighbors)
			walksTotal++
			if measuring {
				measure.walk(&wr, res)
			}
		}
		if co != nil {
			for coDebt += refCycles / p.CoAccessCycles; coDebt >= 1; coDebt-- {
				h.Access(co.Next())
			}
		}
		now += int64(sc.Workload.DataStallCycles)
		if measuring {
			measure.access(&sc.Workload)
		}
	}
	if !measuring {
		measure.begin(inlinedCounters(tl, engine, mshr))
	}
	measure.finish(res, inlinedCounters(tl, engine, mshr))
	return res, nil
}

// TestSchemeMatchesInlinedNativeLoop is the refactor's differential guard:
// sim.Run (translation behind mmu.Scheme) must reproduce the pre-refactor
// inlined pipeline result for result — every metric, every counter — across
// scenario variants and seeds.
func TestSchemeMatchesInlinedNativeLoop(t *testing.T) {
	ResetBuildCache()
	mcf, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	p1p2 := cfgTestP1P2()
	variants := []struct {
		name string
		sc   Scenario
		mut  func(*Params)
	}{
		{"baseline", Scenario{Workload: mcf}, nil},
		{"p1p2", Scenario{Workload: mcf, ASAP: p1p2}, nil},
		{"colocated", Scenario{Workload: mcf, Colocated: true, ASAP: p1p2}, nil},
		{"clustered", Scenario{Workload: mcf, ClusteredTLB: true}, nil},
		{"holes", Scenario{Workload: mcf, ASAP: p1p2}, func(p *Params) { p.HoleProb = 0.2 }},
		{"fivelevel", Scenario{Workload: mcf, ASAP: ASAPConfig{Native: core.Config{P1: true, P2: true, P3: true}}},
			func(p *Params) { p.FiveLevel = true }},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{42, 7, 91} {
				p := DefaultParams()
				p.WarmupWalks = 400
				p.MeasureWalks = 400
				p.Seed = seed
				if tc.mut != nil {
					tc.mut(&p)
				}
				want, err := inlinedRunNative(tc.sc, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(context.Background(), tc.sc, p, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: scheme path diverged from inlined pipeline:\ninlined: %+v\nscheme:  %+v",
						seed, want, got)
				}
			}
		})
	}
}

// TestTranslateLockstep drives the asap scheme and a hand-inlined pipeline
// reference by reference over one randomized stream, comparing the walk
// decision and the full walker result at every step — a finer-grained check
// than the end-of-run metrics above.
func TestTranslateLockstep(t *testing.T) {
	ResetBuildCache()
	mcf, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	p := DefaultParams()
	sc := Scenario{Workload: mcf, ASAP: cfgTestP1P2()}
	asm, err := nativeFor(sc.Workload, true, p)
	if err != nil {
		t.Fatal(err)
	}

	s, err := mmu.New("asap", mmu.Config{
		Hier: cache.NewHierarchy(p.Cache), MSHR: cache.NewMSHRFile(p.MSHRs),
		PWC: p.PWC, ASAP: sc.ASAP.Native, RangeRegisters: p.RangeRegisters,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(0, asm.process())
	s.Boot(0)

	h := cache.NewHierarchy(p.Cache)
	tl := tlb.NewTwoLevel(false)
	mshr := cache.NewMSHRFile(p.MSHRs)
	engine := core.NewEngine(p.RangeRegisters, sc.ASAP.Native)
	engine.Swap(asm.descs) // Boot's empty-file swap, mirrored
	w := &walker.Walker{H: h, PWC: pwc.New(p.PWC), ASAP: engine, MSHR: mshr}
	layout, frames := asm.layout, asm.frames
	neighbors := func(vpn uint64) (uint64, bool) {
		if !layout.PresentVPN(vpn) {
			return 0, false
		}
		return uint64(frames.Frame(vpn)), true
	}

	genA := workload.NewGenerator(sc.Workload, layout, p.Seed)
	genB := workload.NewGenerator(sc.Workload, layout, p.Seed)
	var now int64
	var wrA, wrB walker.Result
	for i := 0; i < 20_000; i++ {
		va := genA.Next()
		if vb := genB.Next(); vb != va {
			t.Fatalf("ref %d: generator streams diverged", i)
		}
		walkedA := s.Translate(now, va, &wrA)
		pfn := uint64(frames.Frame(va.VPN()))
		walkedB := !tl.LookupVA(va, pfn, neighbors)
		if walkedB {
			w.Walk(now, asm.table, va, &wrB)
			tl.InsertVA(va, wrB.Huge, pfn, neighbors)
		}
		if walkedA != walkedB {
			t.Fatalf("ref %d (va %#x): scheme walked=%v, inlined walked=%v", i, uint64(va), walkedA, walkedB)
		}
		if walkedA {
			if !reflect.DeepEqual(wrA, wrB) {
				t.Fatalf("ref %d (va %#x): walk results diverged:\nscheme:  %+v\ninlined: %+v", i, uint64(va), wrA, wrB)
			}
			now += int64(wrA.Cycles)
		}
		now += int64(sc.Workload.DataStallCycles)
	}
}
