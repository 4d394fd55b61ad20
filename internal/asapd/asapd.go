// Package asapd is the simulation service: an HTTP/JSON front end that
// accepts experiment-grid and trace-replay jobs and executes them through
// internal/runner, hardened end to end.
//
// The hardening contracts, each proven by a test in this package or its
// subpackages:
//
//   - Backpressure: the job queue is bounded (queue.Queue); a full queue is
//     HTTP 429 + Retry-After, never an unbounded in-memory backlog. The
//     Client helper retries with jittered exponential backoff.
//   - Timeouts: a job's TimeoutMS bounds the whole grid through context
//     plumbing that reaches sim's reference loop; on expiry the job reports
//     every completed cell plus structured per-cell errors for the rest.
//   - Crash safety: results persist in an atomic, digest-verified store
//     (store.Store); corrupt entries are quarantined and re-simulated, never
//     served.
//   - Graceful shutdown: Shutdown stops intake (503), drains in-flight cells
//     to a deadline, cancels what remains, flushes and exits with zero
//     leaked goroutines.
//
// This package is intentionally outside the determinism lint scope: it is
// the one place in the repository that deals in wall-clock time, I/O errors
// and OS signals. Everything it calls below (runner, sim) remains
// deterministic.
package asapd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/asapd/faultfs"
	"repro/internal/asapd/queue"
	"repro/internal/asapd/store"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// ErrBusy reports a full job queue: back off and retry (HTTP 429).
var ErrBusy = errors.New("asapd: queue full")

// ErrDraining reports a service that is shutting down (HTTP 503).
var ErrDraining = errors.New("asapd: draining")

// Clock abstracts wall-clock time so tests inject a deterministic one.
type Clock interface {
	Now() time.Time
}

type sysClock struct{}

func (sysClock) Now() time.Time { return time.Now() }

// Config configures a Service. The zero value is usable: GOMAXPROCS
// simulation workers, a small queue, no persistent store.
type Config struct {
	// Workers is the simulation worker-pool size (<= 0: GOMAXPROCS).
	Workers int
	// QueueCap bounds the job queue (<= 0: 16). A full queue is ErrBusy.
	QueueCap int
	// JobWorkers is the number of jobs executing concurrently (<= 0: 2).
	// Cells within a job always fan out across the simulation workers;
	// JobWorkers only bounds how many grids make progress at once.
	JobWorkers int
	// StoreDir enables the persistent result store when non-empty.
	StoreDir string
	// FS overrides the store's filesystem (fault injection); nil is the OS.
	FS faultfs.FS
	// Clock overrides wall-clock time; nil is the system clock.
	Clock Clock
	// ForeignRetries bounds re-submissions of a cell whose in-flight
	// simulation was cancelled by another job's deadline (< 0: 0; 0 picks
	// the default of 2).
	ForeignRetries int
}

// Service executes jobs from a bounded queue against a shared runner and
// persistent store. Create with New, stop with Shutdown.
type Service struct {
	cfg    Config
	clock  Clock
	q      *queue.Queue[*Job]
	runner *runner.Runner
	store  *store.Store // nil when StoreDir is empty

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup // job workers

	mu sync.Mutex
	// queued mirrors the queue's occupancy under s.mu: incremented before a
	// successful TryPush, decremented by the popping worker in the same
	// critical section that marks the job in flight. The queue's own Len()
	// would be read under a different lock at a different instant — during a
	// pop, a snapshot could count one job both queued and in flight, showing
	// depth + in-flight above capacity. The mirrored counter makes the
	// queued -> in-flight transition atomic with respect to MetricsSnapshot.
	queued    int
	jobs      map[string]*Job
	order     []string // job IDs in submission order
	nextID    uint64
	draining  bool
	inFlight  int // jobs currently executing
	cellsDone uint64
	started   time.Time
	cellRate  *obs.ProgressMeter // EWMA cells/s, fed with clock timestamps
}

// New builds the service and starts its job workers. StoreDir (when set) is
// created if needed; Open's recovery sweep runs before any job executes.
func New(cfg Config) (*Service, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.ForeignRetries == 0 {
		cfg.ForeignRetries = 2
	}
	s := &Service{
		cfg:   cfg,
		clock: cfg.Clock,
		q:     queue.New[*Job](cfg.QueueCap),
		jobs:  map[string]*Job{},
	}
	if s.clock == nil {
		s.clock = sysClock{}
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.FS)
		if err != nil {
			return nil, fmt.Errorf("asapd: open store: %w", err)
		}
		s.store = st
	}
	s.runner = runner.New(cfg.Workers)
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.started = s.clock.Now()
	s.cellRate = obs.NewProgressMeter(0, 0)
	s.wg.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.jobWorker()
	}
	return s, nil
}

// Submit validates spec, enqueues it and returns the queued job. It never
// blocks on simulation work. Errors: validation failures (HTTP 400), ErrBusy
// (429), ErrDraining (503).
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	plan, err := spec.plan()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Reserve queue capacity under s.mu. queued never undercounts the queue's
	// real occupancy (it is incremented before the push and decremented after
	// the pop), so a reservation that fits here guarantees TryPush below
	// cannot find the queue full.
	if s.queued >= s.q.Cap() {
		s.mu.Unlock()
		return nil, ErrBusy
	}
	s.queued++
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()
	j := newJob(id, spec, plan, s.clock.Now())

	// Push before registering: a refused push leaves no trace, and a worker
	// that pops instantly works on the shared *Job regardless of the map.
	if err := s.q.TryPush(j); err != nil {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		switch {
		case errors.Is(err, queue.ErrFull):
			return nil, ErrBusy
		case errors.Is(err, queue.ErrClosed):
			return nil, ErrDraining
		}
		return nil, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	return j, nil
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

func (s *Service) jobWorker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.Pop(s.rootCtx)
		if !ok {
			return
		}
		// One critical section moves the job from queued to in flight, so a
		// metrics snapshot sees it in exactly one of the two counters.
		s.mu.Lock()
		s.queued--
		s.inFlight++
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}
}

// runJob executes one job: store-first, then prefetch every miss through the
// runner and collect in order, persisting fresh results. Per-cell failures
// (including the job deadline) are recorded per cell; the job itself always
// reaches done with whatever completed.
func (s *Service) runJob(j *Job) {
	j.start(s.clock.Now())
	ctx := s.rootCtx
	if j.spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// Store pass + prefetch: hits complete immediately, misses fan out
	// across the runner's workers (singleflight dedupes cells shared with
	// other in-flight jobs).
	futures := make([]*runner.Future, len(j.plan))
	for i, pc := range j.plan {
		if res, ok := s.storeGet(pc.key()); ok {
			s.finishCell(j, i, pc, SourceStore, res)
			continue
		}
		futures[i] = s.runner.SubmitRepeatCtx(ctx, pc.sc, pc.base, pc.repeat)
	}
	for i, f := range futures {
		if f == nil {
			continue // store hit
		}
		pc := j.plan[i]
		res, err := s.collect(ctx, f, pc)
		if err != nil {
			j.failCell(i, err)
			continue
		}
		s.finishCell(j, i, pc, SourceSimulated, res)
		s.storePut(pc.key(), res)
	}
	j.finish(s.clock.Now())
}

// collect waits for a cell, re-submitting when the in-flight simulation it
// joined was cancelled by a different job's deadline: singleflight means the
// first submitter's context governs the work, so a foreign cancellation is
// not this job's failure. Retries are bounded; the cell was evicted from the
// memo, so a re-submission starts fresh work under our own context.
func (s *Service) collect(ctx context.Context, f *runner.Future, pc plannedCell) (*sim.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := f.WaitCtx(ctx)
		if err == nil {
			return res, nil
		}
		foreign := (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
			ctx.Err() == nil
		if !foreign || attempt >= s.cfg.ForeignRetries {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("cell aborted: %w", ctx.Err())
			}
			return nil, err
		}
		f = s.runner.SubmitRepeatCtx(ctx, pc.sc, pc.base, pc.repeat)
	}
}

func (s *Service) finishCell(j *Job, i int, pc plannedCell, source string, res *sim.Result) {
	rec := report.FromResult("asapd", pc.sc, pc.base, pc.repeat, res)
	j.completeCell(i, source, &rec)
	now := s.clock.Now()
	s.mu.Lock()
	s.cellsDone++
	done := s.cellsDone
	s.mu.Unlock()
	s.cellRate.Observe(now.UnixNano(), int64(done))
}

func (s *Service) storeGet(key sim.CellKey) (*sim.Result, bool) {
	if s.store == nil {
		return nil, false
	}
	return s.store.Get(key)
}

// storePut persists a fresh result. Store write failures are deliberately
// non-fatal: the job already has its result in memory; the store's
// WriteErrors stat (surfaced via /metrics) is the operator's signal.
func (s *Service) storePut(key sim.CellKey, res *sim.Result) {
	if s.store == nil {
		return
	}
	_ = s.store.Put(key, res) //nolint:errcheck // recorded in store stats
}

// Draining reports whether Shutdown has begun (healthz turns 503).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops intake immediately (new submissions get ErrDraining) and
// drains: queued and in-flight jobs run to completion while ctx lasts. If
// ctx ends first, the remaining work is cancelled — in-flight cells abort at
// the simulator's next context check and are recorded as per-cell errors —
// and Shutdown returns ctx.Err(). Either way every goroutine the service
// started has exited when Shutdown returns, and a nil error means a clean
// drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// A second Shutdown just waits for the first to finish the workers.
		s.wg.Wait()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.q.Close() // workers drain queued jobs, then their Pop returns false

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		err = ctx.Err()
		s.rootCancel() // abort in-flight cells; workers exit promptly
		<-workersDone
	}
	s.rootCancel()
	s.runner.Close()
	return err
}

// Metrics is the /metrics document. QueueDepth and JobsInFlight come from one
// snapshot lock, so QueueDepth + JobsInFlight never exceeds QueueCap +
// JobWorkers (a job is never counted in both).
type Metrics struct {
	QueueDepth   int     `json:"queue_depth"`
	QueueCap     int     `json:"queue_cap"`
	JobsInFlight int     `json:"jobs_in_flight"`
	CellsDone    uint64  `json:"cells_done"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	// CellsPerSecRecent is a decaying average of recent throughput (5 s
	// half-life), as opposed to CellsPerSec's lifetime mean.
	CellsPerSecRecent float64 `json:"cells_per_sec_recent"`
	UptimeSec         float64 `json:"uptime_sec"`
	Draining          bool    `json:"draining"`

	RunnerHits   uint64 `json:"runner_hits"`
	RunnerMisses uint64 `json:"runner_misses"`
	// Runner progress: unique cells accepted, finished and executing right
	// now on the shared simulation worker pool (runner.Progress).
	RunnerCellsSubmitted uint64 `json:"runner_cells_submitted"`
	RunnerCellsDone      uint64 `json:"runner_cells_done"`
	RunnerCellsInFlight  uint64 `json:"runner_cells_in_flight"`
	// RunnerMemoHitRate is hits/(hits+misses) of result collection — the
	// fraction of collected cells served without a fresh simulation.
	RunnerMemoHitRate float64 `json:"runner_memo_hit_rate"`

	Store        *store.Stats `json:"store,omitempty"`
	StoreHitRate float64      `json:"store_hit_rate,omitempty"`
}

// MetricsSnapshot gathers the service's counters. Queue depth and job
// in-flight are the mirrored counters read under the one s.mu section that
// the worker's queued->in-flight transition also holds, so the pair is
// consistent at any instant.
func (s *Service) MetricsSnapshot() Metrics {
	hits, misses := s.runner.Stats()
	prog := s.runner.Progress()
	s.mu.Lock()
	m := Metrics{
		QueueDepth:           s.queued,
		QueueCap:             s.q.Cap(),
		JobsInFlight:         s.inFlight,
		CellsDone:            s.cellsDone,
		Draining:             s.draining,
		RunnerHits:           hits,
		RunnerMisses:         misses,
		RunnerCellsSubmitted: prog.Submitted,
		RunnerCellsDone:      prog.Done,
		RunnerCellsInFlight:  prog.InFlight,
	}
	uptime := s.clock.Now().Sub(s.started).Seconds()
	s.mu.Unlock()
	if uptime > 0 {
		m.UptimeSec = uptime
		m.CellsPerSec = float64(m.CellsDone) / uptime
	}
	m.CellsPerSecRecent = s.cellRate.Rate()
	if collected := hits + misses; collected > 0 {
		m.RunnerMemoHitRate = float64(hits) / float64(collected)
	}
	if s.store != nil {
		st := s.store.Stats()
		m.Store = &st
		if lookups := st.Hits + st.Misses; lookups > 0 {
			m.StoreHitRate = float64(st.Hits) / float64(lookups)
		}
	}
	return m
}

// WriteProm renders the metrics snapshot in Prometheus text exposition
// format (content negotiated by /metrics?format=prom). The registry is built
// per call from one MetricsSnapshot, so the exposition is as consistent as
// the JSON document.
func (s *Service) WriteProm(w io.Writer) error {
	m := s.MetricsSnapshot()
	reg := obs.NewRegistry()
	gauge := func(name, help string, v float64) { reg.Gauge(name, help).Set(v) }
	counter := func(name, help string, v uint64) { reg.Counter(name, help).Add(v) }

	gauge("asapd_queue_depth", "Jobs waiting in the bounded queue.", float64(m.QueueDepth))
	gauge("asapd_queue_capacity", "Capacity of the bounded job queue.", float64(m.QueueCap))
	gauge("asapd_jobs_in_flight", "Jobs currently executing.", float64(m.JobsInFlight))
	counter("asapd_cells_done_total", "Cells completed since start.", m.CellsDone)
	gauge("asapd_cells_per_sec", "Recent cell throughput (decaying average).", m.CellsPerSecRecent)
	gauge("asapd_uptime_seconds", "Seconds since the service started.", m.UptimeSec)
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	gauge("asapd_draining", "1 while shutdown is draining the service.", draining)

	counter("asapd_runner_hits_total", "Cell collections served from the runner memo.", m.RunnerHits)
	counter("asapd_runner_misses_total", "Cell collections that ran a fresh simulation.", m.RunnerMisses)
	counter("asapd_runner_cells_submitted_total", "Unique cells accepted by the runner.", m.RunnerCellsSubmitted)
	counter("asapd_runner_cells_done_total", "Runner cells whose simulation finished.", m.RunnerCellsDone)
	gauge("asapd_runner_cells_in_flight", "Cells executing on simulation workers.", float64(m.RunnerCellsInFlight))
	gauge("asapd_runner_memo_hit_rate", "Fraction of collected cells served from the memo.", m.RunnerMemoHitRate)

	if m.Store != nil {
		counter("asapd_store_hits_total", "Result-store lookups served.", m.Store.Hits)
		counter("asapd_store_misses_total", "Result-store lookups that missed.", m.Store.Misses)
		counter("asapd_store_corrupt_total", "Store entries quarantined as corrupt.", m.Store.Corrupt)
		counter("asapd_store_writes_total", "Results persisted to the store.", m.Store.Writes)
		counter("asapd_store_write_errors_total", "Store writes that failed.", m.Store.WriteErrors)
		counter("asapd_store_recovered_total", "Entries recovered by the startup sweep.", m.Store.Recovered)
		gauge("asapd_store_hit_rate", "Fraction of store lookups served.", m.StoreHitRate)
	}
	return reg.WriteProm(w)
}
