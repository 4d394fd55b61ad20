package asapd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

// JobSpec is the wire format of a submitted job: an experiment grid (one or
// more scenario cells over a shared parameter set) or a trace-replay job
// (cells whose Trace names a server-side capture file). Cells × Repeats is
// the unit of work; every (cell, repeat) pair simulates — or is served from
// the persistent store — independently, so a failed or timed-out cell never
// takes the rest of the grid down with it.
type JobSpec struct {
	Cells []sim.CellSpec `json:"cells"`
	// Params tunes the measurement protocol for every cell of the job.
	Params sim.ParamSpec `json:"params"`
	// Repeats is the number of independent repeats per cell (seeds derived
	// per repeat exactly like cmd/paperrepro); 0 means 1. Cells × Repeats
	// may not exceed maxJobCells.
	Repeats int `json:"repeats,omitempty"`
	// TimeoutMS bounds the whole job. On expiry the job reports the cells
	// that completed plus per-cell deadline errors for the rest. 0 means no
	// per-job deadline (the service's lifetime still bounds it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxJobCells bounds a job's planned cells (cells × repeats), so a small
// body cannot make Submit allocate without limit. It sits above the largest
// grid the repository runs: paperrepro -exp all simulates 230 cells, and
// 1024 holds that grid at four repeats.
const maxJobCells = 1024

// plannedCell is one (cell, repeat) unit of work after validation: the
// scenario, the job's base parameter set, and the repeat index. The cell it
// simulates, and so its memo/store key, is (sc, params()).
type plannedCell struct {
	sc     sim.Scenario
	base   sim.Params
	repeat int
}

// params is the repeat's parameter set: base with its derived seed.
func (pc plannedCell) params() sim.Params {
	return pc.base.ForRepeat(pc.repeat)
}

func (pc plannedCell) key() sim.CellKey {
	return sim.Key(pc.sc, pc.params())
}

// plan validates the whole spec and expands it to (cell, repeat) units. A
// trace cell loads (and registers) its file here, so a bad path is a 400 at
// submission, not a buried per-cell error an hour later.
func (spec JobSpec) plan() ([]plannedCell, error) {
	if len(spec.Cells) == 0 {
		return nil, fmt.Errorf("job has no cells")
	}
	if spec.Repeats < 0 {
		return nil, fmt.Errorf("repeats must be >= 0")
	}
	repeats := max(spec.Repeats, 1)
	// Divide rather than multiply, so no repeats value can overflow.
	if repeats > maxJobCells/len(spec.Cells) {
		return nil, fmt.Errorf("job too large: %d cells x %d repeats exceeds the limit of %d cells per job",
			len(spec.Cells), repeats, maxJobCells)
	}
	out := make([]plannedCell, 0, len(spec.Cells)*repeats)
	for i, cs := range spec.Cells {
		sc, base, err := sim.Parse(cs, spec.Params)
		if err != nil {
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
