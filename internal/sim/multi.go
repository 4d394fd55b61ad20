package sim

import (
	"context"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/walker"
	"repro/internal/workload"
)

// mproc is one co-scheduled process: its spec, the per-process reference
// generator that gives each process its own phase, and the data-traffic
// stream that models its cache footprint (see runMulti). Its address-space
// state (page table, frame map, descriptor file) is attached to the
// translation scheme under the process's pid.
type mproc struct {
	spec workload.Spec
	src  refSource
	data *workload.CoRunner
}

// runMulti time-shares Params.Processes native processes on the simulated
// core (paper §3.3's context-switch regime, which the single-address-space
// harness never exercised). Per switch, the incoming process pays the OS
// cost, plus — with ASAP enabled — the descriptor-file save/restore the
// paper argues is ordinary register state; translation state follows the
// configured policy: FlushOnSwitch drops the TLBs and PWCs (untagged
// hardware), otherwise entries are retained under per-process ASID tags.
// Both actions live in Scheme.Switch, which reports the descriptor volume
// moved so the modeled cost scales with it. The reference stream interleaves
// quantum slices driven by the deterministic seeded scheduler, so walks,
// switches and flush refills land identically for any worker count.
//
// Cache pressure follows the paper's co-runner methodology (§4) applied to
// time-sharing: a process's own data accesses never flow through the
// hierarchy while it runs (their cost is folded into DataStallCycles), but
// they do evict lines the other processes cached. At every switch the
// outgoing process's quantum-worth of data traffic is replayed into the
// hierarchy — paced like the SMT co-runner, drawn from the process's data
// frame area, and derived only from switch positions and per-process
// streams, so the pollution is identical under either switch policy. It
// costs no simulated time (it happened concurrently with the quantum);
// what it changes is where the incoming process's walks are served.
func runMulti(ctx context.Context, sc Scenario, p Params, h *cache.Hierarchy,
	mshr *cache.MSHRFile, co *workload.CoRunner, res *Result, tap RefTap, tr *obs.Tracer) error {
	mix, err := workload.MixFor(sc.Workload, sc.Mix, p.Processes)
	if err != nil {
		return err
	}
	s, err := schemeFor(sc, p, h, mshr, tr)
	if err != nil {
		return err
	}
	procs := make([]*mproc, len(mix.Specs))
	for i, spec := range mix.Specs {
		asm, err := nativeFor(spec, sc.ASAP.Native.Enabled(), p)
		if err != nil {
			return err
		}
		seed := p.Seed
		if i > 0 {
			// Same-workload processes share an assembly but never a phase.
			seed = rng.Mix64(p.Seed + uint64(i)<<13)
		}
		src, err := tapped(genSource{workload.NewGenerator(spec, asm.layout, seed)}, tap, i, spec, asm.layout, seed)
		if err != nil {
			return err
		}
		s.Attach(i, asm.process())
		tr.DefineProcess(i, spec.Name)
		procs[i] = &mproc{
			spec: spec,
			src:  src,
			data: workload.NewCoRunner(asm.frames.Base.Addr(), asm.frames.Span*mem.PageSize,
				rng.Mix64(seed^0xda7a)),
		}
	}

	// Boot-time install of process 0's state; later switch-ins restore it
	// again like any other process's.
	s.Boot(0)
	sched := workload.NewScheduler(len(procs), p.QuantumRefs, rng.Mix64(p.Seed^0x5c4ed))

	var wr walker.Result
	var now int64
	measure := newMeter(sc.Workload, p)
	var walksTotal, refs, sliceRefs int
	traffic := coTraffic{h: h, every: p.CoAccessCycles}
	measuring := false
	scheme := sc.SchemeName()
	cur := procs[0]
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
		pid, switched := sched.Tick()
		if switched {
			// Replay the outgoing quantum's data-side cache footprint: one
			// request per CoAccessCycles of the quantum's nominal progress
			// (stall + retire time per reference; walk time is excluded so
			// the replay is policy-independent).
			nominal := cur.spec.DataStallCycles + cur.spec.InstrPerRef*p.CPIBase
			traffic.burst(cur.data, int(float64(sliceRefs)*nominal/p.CoAccessCycles))
			sliceRefs = 0
			cur = procs[pid]
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
		va, ok := cur.src.Next()
		if !ok {
			break
		}
		refCycles := cur.spec.DataStallCycles + cur.spec.InstrPerRef*p.CPIBase
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
		if co != nil {
			traffic.smt(co, refCycles)
		}
		now += int64(cur.spec.DataStallCycles)
		if measuring {
			measure.accessOf(cur.spec)
		}
	}
	if !measuring {
		// MaxRefs (or a replayed stream) ran out before warmup completed:
		// report an empty window, not warmup-contaminated cumulative counters.
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
