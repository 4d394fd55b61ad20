package obs

// The event tracer. Simulation code holds a *Tracer that is usually nil;
// every emitting site is behind an `if tr != nil` check (and the methods
// tolerate a nil receiver anyway, so a missed check degrades to a no-op, not
// a crash). Timestamps are simulated cycles — the tracer never touches the
// wall clock — and events append to an in-memory buffer that WriteJSON
// serializes as Chrome trace_event JSON.

// Track identifiers (Chrome "tid"). One simulated process is one Chrome
// "pid"; within it, translation activity, prefetch traffic and scheduling
// live on separate tracks so overlapping spans never fight over one lane.
const (
	TrackSched     = 0 // context switches, measure-window markers
	TrackTranslate = 1 // TLB probes, walks and their per-level steps
	TrackPrefetch  = 2 // ASAP prefetch spans and MSHR drops
)

// Arg is one key/value annotation on an event. Args are an ordered slice,
// not a map, so serialization order is deterministic by construction.
type Arg struct {
	Key string
	// Exactly one of the typed values is live, selected by Kind.
	Kind ArgKind
	Str  string
	Int  int64
	Bool bool
}

// ArgKind discriminates Arg's payload.
type ArgKind uint8

// Arg payload kinds.
const (
	ArgStr ArgKind = iota
	ArgInt
	ArgBool
)

// Event is one trace event in Chrome trace_event vocabulary: Ph 'X' is a
// complete span (TS..TS+Dur), 'i' an instant. TS and Dur are simulated
// cycles (rendered as microseconds by Perfetto, which only affects the
// displayed unit, not the shape of the timeline).
type Event struct {
	Name string
	Ph   byte
	TS   int64
	Dur  int64
	PID  int32
	TID  int32
	Args []Arg
}

// TraceConfig configures a Tracer.
type TraceConfig struct {
	// Sample records every Nth walk (with all its nested steps, probes and
	// prefetches) and every Nth TLB-hit instant; <= 1 records everything.
	// Sampling is counter-based, so it is deterministic and replay-stable.
	Sample int
	// Metrics, when non-nil, receives cycle-domain aggregates (walk-latency
	// histograms overall and per serving level) for every walk — sampling
	// gates events only, never the aggregates.
	Metrics *Registry
}

// Tracer collects structured simulation events. It is single-run,
// single-goroutine state, exactly like the simulation loop that feeds it;
// create one per traced run.
type Tracer struct {
	sample int
	events []Event

	pid     int32
	walkSeq uint64
	tlbSeq  uint64
	inWalk  bool
	sampled bool // current walk is recorded
	walkTS  int64

	procs []procName // Chrome process_name metadata, emitted by WriteJSON

	hWalk *Histogram
	hStep map[string]*Histogram // keyed by serving-level name; fixed key set
}

type procName struct {
	pid  int32
	name string
}

// walkLatBuckets spans one L1 hit to several DRAM round trips.
var walkLatBuckets = []float64{10, 20, 40, 80, 160, 320, 640, 1280}

// stepServed is the fixed set of serving-level names the per-step histograms
// are registered under (cache.ServedBy.String() values; a slice, not a map,
// so registration order is deterministic).
var stepServed = []string{"PWC", "L1", "L2", "LLC", "Mem"}

// NewTracer returns a tracer recording under cfg.
func NewTracer(cfg TraceConfig) *Tracer {
	t := &Tracer{sample: cfg.Sample}
	if t.sample < 1 {
		t.sample = 1
	}
	if cfg.Metrics != nil {
		t.hWalk = cfg.Metrics.Histogram("sim_walk_latency_cycles",
			"End-to-end page-walk latency in simulated cycles.", walkLatBuckets)
		t.hStep = make(map[string]*Histogram, len(stepServed))
		for _, s := range stepServed {
			t.hStep[s] = cfg.Metrics.Histogram("sim_walk_step_cycles",
				"Per-step page-walk latency in simulated cycles, by serving hierarchy level.",
				walkLatBuckets, Label{"served", s})
		}
	}
	return t
}

// Events returns the recorded events (shared backing array; read-only).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// DefineProcess names a simulated process for the trace viewer's sidebar.
func (t *Tracer) DefineProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.procs = append(t.procs, procName{pid: int32(pid), name: name})
}

// TLBHit records a sampled instant for a reference resolved by the TLB.
func (t *Tracer) TLBHit(now int64) {
	if t == nil {
		return
	}
	t.tlbSeq++
	if (t.tlbSeq-1)%uint64(t.sample) != 0 {
		return
	}
	t.events = append(t.events, Event{
		Name: "tlb.hit", Ph: 'i', TS: now, PID: t.pid, TID: TrackTranslate,
	})
}

// WalkStart opens a walk context at cycle now: the sampling decision for
// this walk is made here, and every event until WalkEnd (steps, accel
// probes, prefetches, MSHR drops) belongs to the walk.
func (t *Tracer) WalkStart(now int64) {
	if t == nil {
		return
	}
	t.walkSeq++
	t.inWalk = true
	t.sampled = (t.walkSeq-1)%uint64(t.sample) == 0
	t.walkTS = now
}

// WalkEnd closes the walk context, emitting the top-level walk span
// (TS..TS+cycles on the translate track) when the walk is sampled, and
// feeding the walk-latency histogram regardless of sampling. measured
// reports whether the walk landed inside the run's measurement window —
// summing the durations of measured walk spans reproduces the run's
// reported walk cycles exactly.
func (t *Tracer) WalkEnd(start int64, cycles int, scheme string, measured bool) {
	if t == nil {
		return
	}
	t.inWalk = false
	if t.hWalk != nil {
		t.hWalk.Observe(float64(cycles))
	}
	if !t.sampled {
		return
	}
	t.events = append(t.events, Event{
		Name: "walk", Ph: 'X', TS: start, Dur: int64(cycles),
		PID: t.pid, TID: TrackTranslate,
		Args: []Arg{
			{Key: "scheme", Kind: ArgStr, Str: scheme},
			{Key: "measured", Kind: ArgBool, Bool: measured},
		},
	})
}

// walkOpen reports whether the current walk's events should be recorded.
func (t *Tracer) walkOpen() bool { return t != nil && t.inWalk && t.sampled }

// Step records one per-level step of the current walk: the page-table level
// read, the hierarchy level that served it (PWC for levels skipped via a
// page-walk-cache hit, recorded as zero-duration markers), its start cycle
// and cost, and whether an ASAP prefetch covered it. dim distinguishes the
// translation dimension under virtualization (native/guest/host).
func (t *Tracer) Step(dim string, level int, served string, start, dur int64, prefetched bool) {
	if t == nil {
		return
	}
	if h := t.hStep[served]; h != nil {
		h.Observe(float64(dur))
	}
	if !t.walkOpen() {
		return
	}
	args := []Arg{
		{Key: "dim", Kind: ArgStr, Str: dim},
		{Key: "level", Kind: ArgInt, Int: int64(level)},
		{Key: "served", Kind: ArgStr, Str: served},
	}
	if prefetched {
		args = append(args, Arg{Key: "prefetched", Kind: ArgBool, Bool: true})
	}
	t.events = append(t.events, Event{
		Name: "pt.step", Ph: 'X', TS: start, Dur: dur,
		PID: t.pid, TID: TrackTranslate, Args: args,
	})
}

// PWCLookup records the page-walk-cache probe that opens every walk.
func (t *Tracer) PWCLookup(start, dur int64, skippedTo int) {
	if !t.walkOpen() {
		return
	}
	t.events = append(t.events, Event{
		Name: "pwc.lookup", Ph: 'X', TS: start, Dur: dur,
		PID: t.pid, TID: TrackTranslate,
		Args: []Arg{{Key: "resume_level", Kind: ArgInt, Int: int64(skippedTo)}},
	})
}

// AccelProbe records the current walk's acceleration-mechanism probe — an
// ASAP range-register lookup, a Victima L2-residency probe, a Revelator
// hash-bucket probe — and whether it hit. The instant lands at the walk's
// start cycle: architecturally the probe runs in parallel with walker
// activation.
func (t *Tracer) AccelProbe(mech string, hit bool) {
	if !t.walkOpen() {
		return
	}
	t.events = append(t.events, Event{
		Name: "accel.probe", Ph: 'i', TS: t.walkTS, PID: t.pid, TID: TrackTranslate,
		Args: []Arg{
			{Key: "mech", Kind: ArgStr, Str: mech},
			{Key: "hit", Kind: ArgBool, Bool: hit},
		},
	})
}

// Prefetch records one issued ASAP prefetch on the prefetch track: launched
// at cycle ts, landing in L1-D lat cycles later. It is an instant carrying
// the latency as an arg, not a span: host-dimension prefetches of a 2D walk
// launch at staggered times and their in-flight windows partially overlap,
// which a span track cannot represent without breaking strict nesting.
func (t *Tracer) Prefetch(level int, ts, lat int64) {
	if !t.walkOpen() {
		return
	}
	t.events = append(t.events, Event{
		Name: "asap.prefetch", Ph: 'i', TS: ts, PID: t.pid, TID: TrackPrefetch,
		Args: []Arg{
			{Key: "level", Kind: ArgInt, Int: int64(level)},
			{Key: "lat_cycles", Kind: ArgInt, Int: lat},
		},
	})
}

// MSHRDrop records a prefetch abandoned because no MSHR was free.
func (t *Tracer) MSHRDrop(level int, ts int64) {
	if !t.walkOpen() {
		return
	}
	t.events = append(t.events, Event{
		Name: "mshr.drop", Ph: 'i', TS: ts, PID: t.pid, TID: TrackPrefetch,
		Args: []Arg{{Key: "level", Kind: ArgInt, Int: int64(level)}},
	})
}

// ProcessSwitch records a context switch to pid at cycle ts: the descriptor
// registers moved by the save/restore and the modeled switch cost ride as
// args, and subsequent events attribute to the incoming process.
func (t *Tracer) ProcessSwitch(ts int64, pid, descMoved int, costCycles int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: "sched.switch", Ph: 'i', TS: ts, PID: t.pid, TID: TrackSched,
		Args: []Arg{
			{Key: "to_pid", Kind: ArgInt, Int: int64(pid)},
			{Key: "desc_moved", Kind: ArgInt, Int: int64(descMoved)},
			{Key: "cost_cycles", Kind: ArgInt, Int: costCycles},
		},
	})
	t.pid = int32(pid)
}

// MeasureBegin marks the warmup/measurement boundary.
func (t *Tracer) MeasureBegin(ts int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: "measure.begin", Ph: 'i', TS: ts, PID: t.pid, TID: TrackSched,
	})
}

// MeasureEnd marks the end of the measurement window.
func (t *Tracer) MeasureEnd(ts int64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: "measure.end", Ph: 'i', TS: ts, PID: t.pid, TID: TrackSched,
	})
}
