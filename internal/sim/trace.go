package sim

import (
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Loaded traces are registered by content digest so that Scenario — a flat,
// comparable value the runner memoizes on — can reference a trace without
// holding it. Registration is idempotent: equal digests mean equal content.
var (
	traceMu  sync.Mutex
	traceReg = map[string]*trace.Trace{}
)

// UseTrace registers tr for replay and returns the scenario that drives it:
// the trace header's spec as the workload (the meter charges its timing
// model) and the content digest as the trace source. Callers layer further
// scenario dimensions (ASAP configs, colocation, a clustered TLB) on the
// returned value; Validate rejects virtualization and multi-process
// scheduling.
func UseTrace(tr *trace.Trace) Scenario {
	traceMu.Lock()
	traceReg[tr.Digest] = tr
	traceMu.Unlock()
	return Scenario{Workload: tr.Header.Spec, Trace: tr.Digest}
}

// RegisteredTrace returns the trace UseTrace registered under digest.
func RegisteredTrace(digest string) (*trace.Trace, error) {
	traceMu.Lock()
	tr, ok := traceReg[digest]
	traceMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sim: trace %s not registered (call UseTrace first)", digest)
	}
	return tr, nil
}

// traceNativeFor assembles the native process image of a trace capture: the
// layout comes verbatim from the trace header (not BuildLayout), so page
// tables, data placement and ASAP candidate sets match the capture exactly —
// the invariant behind record/replay fidelity. Assemblies memoize alongside
// the synthetic ones, keyed by trace digest.
func traceNativeFor(tr *trace.Trace, sorted bool, p Params) (*nativeAssembly, error) {
	key := fmt.Sprintf("trace|%s|%v|%v|%v|%d", tr.Digest, sorted, p.FiveLevel, p.HoleProb, p.RangeRegisters)
	v, err := memoize(key, func() (any, error) {
		layout, err := workload.LayoutFromAreas(tr.Header.Areas)
		if err != nil {
			return nil, fmt.Errorf("sim: trace %s layout: %w", tr.Digest, err)
		}
		return assembleNative(tr.Header.Spec, layout, sorted, p.FiveLevel, p.HoleProb, p.RangeRegisters)
	})
	if err != nil {
		return nil, err
	}
	return v.(*nativeAssembly), nil
}
