package asapd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// JobSpec is the wire format of a submitted job: an experiment grid (one or
// more scenario cells over a shared parameter set) or a trace-replay job
// (cells whose Trace names a server-side capture file). Cells × Repeats is
// the unit of work; every (cell, repeat) pair simulates — or is served from
// the persistent store — independently, so a failed or timed-out cell never
// takes the rest of the grid down with it.
type JobSpec struct {
	Cells []CellSpec `json:"cells"`
	// Params tunes the measurement protocol for every cell of the job.
	Params ParamSpec `json:"params"`
	// Repeats is the number of independent repeats per cell (seeds derived
	// per repeat exactly like cmd/paperrepro); 0 means 1.
	Repeats int `json:"repeats,omitempty"`
	// TimeoutMS bounds the whole job. On expiry the job reports the cells
	// that completed plus per-cell deadline errors for the rest. 0 means no
	// per-job deadline (the service's lifetime still bounds it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CellSpec names one scenario cell in CLI vocabulary (the same strings
// cmd/asapsim accepts).
type CellSpec struct {
	Workload      string `json:"workload"`
	Virtualized   bool   `json:"virtualized,omitempty"`
	Colocated     bool   `json:"colocated,omitempty"`
	HostHugePages bool   `json:"host_huge_pages,omitempty"`
	ClusteredTLB  bool   `json:"clustered_tlb,omitempty"`
	ASAP          string `json:"asap,omitempty"`   // native config: off, p1, p1+p2, ...
	Guest         string `json:"guest,omitempty"`  // guest config (with virtualized)
	Host          string `json:"host,omitempty"`   // host config (with virtualized)
	Scheme        string `json:"scheme,omitempty"` // translation scheme (empty = asap)
	Mix           string `json:"mix,omitempty"`    // multi-process mix names
	// Trace is a server-side trace file (recorded with asaptrace) that
	// drives this cell as a replay; Workload is taken from the trace header.
	Trace string `json:"trace,omitempty"`
}

// ParamSpec is the subset of sim.Params a job may override; zero values keep
// the defaults (sim.DefaultParams, or the reduced Fast protocol).
type ParamSpec struct {
	Fast           bool    `json:"fast,omitempty"` // reduced measurement protocol
	WarmupWalks    int     `json:"warmup_walks,omitempty"`
	MeasureWalks   int     `json:"measure_walks,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	Processes      int     `json:"processes,omitempty"`
	QuantumRefs    int     `json:"quantum_refs,omitempty"`
	FlushOnSwitch  bool    `json:"flush_on_switch,omitempty"`
	RangeRegisters int     `json:"range_registers,omitempty"`
	HoleProb       float64 `json:"hole_prob,omitempty"`
	FiveLevel      bool    `json:"five_level,omitempty"`
}

// params materializes the effective sim.Params.
func (ps ParamSpec) params() sim.Params {
	p := sim.DefaultParams()
	if ps.Fast {
		p.WarmupWalks = 10_000
		p.MeasureWalks = 8_000
	}
	if ps.WarmupWalks > 0 {
		p.WarmupWalks = ps.WarmupWalks
	}
	if ps.MeasureWalks > 0 {
		p.MeasureWalks = ps.MeasureWalks
	}
	if ps.Seed != 0 {
		p.Seed = ps.Seed
	}
	if ps.Processes > 1 {
		p.Processes = ps.Processes
	}
	if ps.QuantumRefs > 0 {
		p.QuantumRefs = ps.QuantumRefs
	}
	p.FlushOnSwitch = ps.FlushOnSwitch
	if ps.RangeRegisters > 0 {
		p.RangeRegisters = ps.RangeRegisters
	}
	if ps.HoleProb > 0 {
		p.HoleProb = ps.HoleProb
	}
	p.FiveLevel = ps.FiveLevel
	return p
}

// plannedCell is one (cell, repeat) unit of work after validation: the
// scenario, the job's base parameter set, and the repeat index. The memo/
// store key is sim.Key(sc, base.ForRepeat(repeat)).
type plannedCell struct {
	sc     sim.Scenario
	base   sim.Params
	repeat int
}

func (pc plannedCell) key() sim.CellKey {
	return sim.Key(pc.sc, pc.base.ForRepeat(pc.repeat))
}

// scenario parses one cell spec into its Scenario (plan validates the
// combination). Trace files are loaded (and registered for replay) at
// submission, so a bad path is a 400 at submit time, not a buried per-cell
// error an hour later.
func (cs CellSpec) scenario() (sim.Scenario, error) {
	var sc sim.Scenario
	if cs.Trace != "" {
		tr, err := trace.LoadFile(cs.Trace)
		if err != nil {
			return sc, fmt.Errorf("trace %s: %w", cs.Trace, err)
		}
		sc = sim.UseTrace(tr)
		if cs.Workload != "" && cs.Workload != sc.Workload.Name {
			return sc, fmt.Errorf("trace %s records workload %s, spec says %s",
				cs.Trace, sc.Workload.Name, cs.Workload)
		}
	} else {
		spec, ok := workload.ByName(cs.Workload)
		if !ok {
			return sc, fmt.Errorf("unknown workload %q", cs.Workload)
		}
		sc.Workload = spec
	}
	sc.Virtualized = cs.Virtualized
	sc.Colocated = cs.Colocated
	sc.HostHugePages = cs.HostHugePages
	sc.ClusteredTLB = cs.ClusteredTLB
	sc.Mix = cs.Mix
	scheme := cs.Scheme
	if scheme == "" {
		scheme = "asap"
	}
	if err := mmu.Validate(scheme); err != nil {
		return sc, err
	}
	if mmu.Canonical(scheme) != "asap" {
		// The asap default keeps the zero Scenario value so digests and
		// store keys match the CLI harness exactly.
		sc.Scheme = mmu.Canonical(scheme)
	}
	// The native config parses in scheme context (prefetch levels belong to
	// the asap scheme), mirroring cmd/asapsim's flag validation.
	var err error
	if sc.ASAP.Native, err = mmu.ParseASAP(scheme, orOff(cs.ASAP)); err != nil {
		return sc, fmt.Errorf("asap: %w", err)
	}
	if sc.ASAP.Guest, err = core.ParseConfig(orOff(cs.Guest)); err != nil {
		return sc, fmt.Errorf("guest: %w", err)
	}
	if sc.ASAP.Host, err = core.ParseConfig(orOff(cs.Host)); err != nil {
		return sc, fmt.Errorf("host: %w", err)
	}
	return sc, nil
}

func orOff(s string) string {
	if s == "" {
		return "off"
	}
	return s
}

// plan validates the whole spec and expands it to (cell, repeat) units.
func (spec JobSpec) plan() ([]plannedCell, error) {
	if len(spec.Cells) == 0 {
		return nil, fmt.Errorf("job has no cells")
	}
	if spec.Repeats < 0 {
		return nil, fmt.Errorf("repeats must be >= 0")
	}
	repeats := spec.Repeats
	if repeats == 0 {
		repeats = 1
	}
	base := spec.Params.params()
	var out []plannedCell
	for i, cs := range spec.Cells {
		sc, err := cs.scenario()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		// Contradictory combinations are submit-time errors, exactly like
		// the CLI's: silently ignoring a dimension produces misleading
		// results.
		if err := sim.Validate(sc, base); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		for rep := 0; rep < repeats; rep++ {
			out = append(out, plannedCell{sc: sc, base: base, repeat: rep})
		}
	}
	return out, nil
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// Cell sources (how a completed cell's result was obtained).
const (
	SourceStore     = "store"     // served from the persistent store
	SourceSimulated = "simulated" // simulated by this job (or shared in-flight)
)

// CellStatus is the per-cell outcome in a job's status.
type CellStatus struct {
	Cell   string `json:"cell"` // scenario name
	Repeat int    `json:"repeat"`
	State  string `json:"state"`            // pending | done | error
	Source string `json:"source,omitempty"` // store | simulated
	Error  string `json:"error,omitempty"`
	// Record carries the full machine-readable result (schema identical to
	// cmd/paperrepro's JSON artifacts; Metrics parallels report.MetricCols).
	Record *report.Record `json:"record,omitempty"`
}

// JobProgress summarizes how far a job has advanced, derived from the
// per-cell states at snapshot time (Total = Done + Failed + Pending).
type JobProgress struct {
	Total   int `json:"total"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Pending int `json:"pending"`
}

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID        string       `json:"id"`
	State     string       `json:"state"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Progress  JobProgress  `json:"progress"`
	Cells     []CellStatus `json:"cells"`
	// Error summarizes a partial outcome (e.g. the job deadline expired):
	// completed cells keep their results, the rest carry per-cell errors.
	Error string `json:"error,omitempty"`
}

// Job is one submitted job's full lifecycle. All mutation goes through
// methods holding mu; Status returns deep-enough copies for concurrent use.
type Job struct {
	id   string
	spec JobSpec
	plan []plannedCell

	mu        sync.Mutex
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cells     []CellStatus
	errMsg    string
	done      chan struct{}
}

func newJob(id string, spec JobSpec, plan []plannedCell, now time.Time) *Job {
	cells := make([]CellStatus, len(plan))
	for i, pc := range plan {
		cells[i] = CellStatus{Cell: pc.sc.Name(), Repeat: pc.repeat, State: "pending"}
	}
	return &Job{
		id: id, spec: spec, plan: plan,
		state: StateQueued, submitted: now, cells: cells,
		done: make(chan struct{}),
	}
}

// Done is closed when the job reaches its terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) start(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.mu.Unlock()
}

func (j *Job) completeCell(i int, source string, rec *report.Record) {
	j.mu.Lock()
	j.cells[i].State = "done"
	j.cells[i].Source = source
	j.cells[i].Record = rec
	j.mu.Unlock()
}

func (j *Job) failCell(i int, err error) {
	j.mu.Lock()
	j.cells[i].State = "error"
	j.cells[i].Error = err.Error()
	j.mu.Unlock()
}

// finish moves the job to done, deriving the partial-outcome summary from
// the per-cell states.
func (j *Job) finish(now time.Time) {
	j.mu.Lock()
	j.state = StateDone
	j.finished = now
	completed, failed := 0, 0
	for _, c := range j.cells {
		switch c.State {
		case "done":
			completed++
		case "error":
			failed++
		}
	}
	if failed > 0 {
		j.errMsg = fmt.Sprintf("%d/%d cells failed; %d completed", failed, len(j.cells), completed)
	}
	j.mu.Unlock()
	close(j.done)
}

// Status snapshots the job for serving. Cell records are shared read-only
// pointers — they are never mutated after completion.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Submitted: j.submitted,
		Cells:     append([]CellStatus(nil), j.cells...),
		Error:     j.errMsg,
	}
	st.Progress.Total = len(j.cells)
	for _, c := range j.cells {
		switch c.State {
		case "done":
			st.Progress.Done++
		case "error":
			st.Progress.Failed++
		default:
			st.Progress.Pending++
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
