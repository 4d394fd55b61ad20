package sim

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// setupMix builds the schedule that time-shares Params.Processes native
// processes on the simulated core (paper §3.3's context-switch regime, which
// the single-address-space harness never exercised). Per switch, the
// incoming process pays the OS cost, plus — with ASAP enabled — the
// descriptor-file save/restore the paper argues is ordinary register state;
// translation state follows the configured policy: FlushOnSwitch drops the
// TLBs and PWCs (untagged hardware), otherwise entries are retained under
// per-process ASID tags. Both actions live in Scheme.Switch, which reports
// the descriptor volume moved so the modeled cost scales with it. The
// reference stream interleaves quantum slices driven by the deterministic
// seeded scheduler, so walks, switches and flush refills land identically
// for any worker count.
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
func setupMix(sc Scenario, p Params, h *cache.Hierarchy, mshr *cache.MSHRFile, tap RefTap, tr *obs.Tracer) (*schedule, error) {
	mix, err := workload.MixFor(sc.Workload, sc.Mix, p.Processes)
	if err != nil {
		return nil, err
	}
	s, err := schemeFor(sc, p, h, mshr, tr)
	if err != nil {
		return nil, err
	}
	procs := make([]*proc, len(mix.Specs))
	for i, spec := range mix.Specs {
		asm, err := nativeFor(spec, sc.ASAP.Native.Enabled(), p)
		if err != nil {
			return nil, err
		}
		seed := p.Seed
		if i > 0 {
			// Same-workload processes share an assembly but never a phase.
			seed = rng.Mix64(p.Seed + uint64(i)<<13)
		}
		src, err := tapped(genSource{workload.NewGenerator(spec, asm.layout, seed)}, tap, i, spec, asm.layout, seed)
		if err != nil {
			return nil, err
		}
		s.Attach(i, asm.process())
		tr.DefineProcess(i, spec.Name)
		procs[i] = &proc{
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
	return &schedule{scheme: s, procs: procs, sched: sched}, nil
}
