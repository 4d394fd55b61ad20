// Package runner executes simulation scenario cells on a bounded worker pool
// and memoizes results by canonical (Scenario, Params) key.
//
// The paper's evaluation regenerates many tables and figures from overlapping
// scenario grids (Fig 2 and Fig 3 iterate the exact same four-scenario ×
// workload grid; Table 1 and Fig 8/10/12 overlap further). A Runner makes
// that cheap twice over: independent cells fan out across GOMAXPROCS worker
// goroutines, and each unique cell is simulated exactly once per process no
// matter how many experiments request it. Requests are singleflight —
// concurrent submissions of the same key share one in-flight simulation.
//
// Experiments submit their full grid up front with Submit and then collect
// results in submission order with Future.Wait (or call Run, which is
// Submit+Wait), so rendered output is byte-identical to a sequential run.
//
// # Lifecycle
//
// New starts the worker pool; Close drains the queue, stops the workers and
// waits for them to exit. Close is idempotent and safe to call from multiple
// goroutines concurrently, and it is safe to race with in-flight Submit
// calls: a submission that loses the race against Close executes inline on
// the submitting goroutine, so its Future still completes. Futures obtained
// at any point remain valid after Close. A Runner holds no resources beyond
// its goroutines, so after Close returns the Runner is fully quiescent (the
// goroutine-leak checks in this package's tests and internal/asapd's
// shutdown tests rely on that).
//
// # Cancellation
//
// SubmitCtx attaches a context to a cell. Because cells are singleflight,
// the context that governs a simulation is the one attached by the cell's
// first submitter; later submitters of an equal cell share the in-flight
// work, whatever context it runs under. A cell that fails with the context's
// error (cancellation or deadline) is evicted from the memo at completion,
// so the next submission of the same key re-simulates instead of being
// served a stale cancellation — only successful results (and genuine
// simulation errors) are remembered. Future.WaitCtx additionally bounds the
// wait itself; abandoning a Future never cancels the underlying simulation
// for other requesters.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// cell is one unique (Scenario, Params) simulation: queued at first request,
// executed by one worker, shared by every requester.
type cell struct {
	sc      sim.Scenario
	p       sim.Params
	ctx     context.Context // the first submitter's context
	done    chan struct{}
	res     *sim.Result
	err     error
	settled bool // simulation finished (guarded by Runner.mu)
	claimed bool // a Wait already consumed this cell (guarded by Runner.mu)
}

// Future is a handle on a submitted cell.
type Future struct {
	r *Runner
	c *cell
}

// Wait blocks until the cell's simulation completes and returns its result.
// The result is shared between all requesters of the cell and must be treated
// as read-only.
//
// Stats are counted here rather than at Submit so that the common
// prefetch-then-collect pattern does not count its own prefetch as a cache
// hit: the first Wait on a cell is the miss (the simulation that actually
// ran), every further Wait is a hit (a simulation avoided by memoization).
func (f *Future) Wait() (*sim.Result, error) {
	<-f.c.done
	return f.claim()
}

// WaitCtx is Wait bounded by ctx: if ctx ends first, WaitCtx returns
// ctx.Err() without consuming the cell, and the simulation keeps running for
// its other requesters (cancel the submission's context to abort the work
// itself).
func (f *Future) WaitCtx(ctx context.Context) (*sim.Result, error) {
	select {
	case <-f.c.done:
		return f.claim()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *Future) claim() (*sim.Result, error) {
	f.r.mu.Lock()
	if f.c.claimed {
		f.r.hits++
	} else {
		f.c.claimed = true
		f.r.misses++
	}
	f.r.mu.Unlock()
	return f.c.res, f.c.err
}

// Runner is a memoizing worker-pool scenario executor. It is safe for
// concurrent use; see the package comment for the lifecycle and cancellation
// contracts.
type Runner struct {
	simulate func(context.Context, sim.Scenario, sim.Params) (*sim.Result, error)

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*cell // pending cells, FIFO
	cells     map[sim.CellKey]*cell
	completed []string // names of successfully simulated cells, completion order
	hits      uint64
	misses    uint64
	submitted uint64 // unique cells accepted (one per simulation started or queued)
	done      uint64 // cells whose simulation finished (success or error)
	inFlight  uint64 // cells currently executing on a worker
	closed    bool
	wg        sync.WaitGroup
}

// Progress is a point-in-time view of the runner's work: Submitted counts
// unique cells accepted (shared submissions of one key count once), Done the
// cells whose simulation finished — successfully or not — and InFlight the
// cells executing right now. Submitted - Done - InFlight cells sit in the
// queue.
type Progress struct {
	Submitted uint64
	Done      uint64
	InFlight  uint64
}

// Progress returns a consistent snapshot of the runner's progress counters
// (all three are read under one lock, so Done+InFlight never exceeds
// Submitted).
func (r *Runner) Progress() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Progress{Submitted: r.submitted, Done: r.done, InFlight: r.inFlight}
}

// New returns a Runner executing cells on workers goroutines; workers <= 0
// selects GOMAXPROCS. Call Close when done to release the workers.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		simulate: func(ctx context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
			return sim.Run(ctx, sc, p, nil, nil)
		},
		cells: map[sim.CellKey]*cell{},
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		c := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		r.exec(c)
	}
}

func (r *Runner) exec(c *cell) {
	r.mu.Lock()
	r.inFlight++
	r.mu.Unlock()
	c.res, c.err = r.simulate(c.ctx, c.sc, c.p)
	r.mu.Lock()
	r.inFlight--
	r.done++
	c.settled = true
	if c.err == nil {
		r.completed = append(r.completed, c.sc.Name())
	} else if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
		// A cancelled cell reflects its submitter's deadline, not the cell's
		// own fate: forget it so the next submission re-simulates instead of
		// being served someone else's cancellation. The entry may already
		// have been replaced by a fresh resubmission — only evict our own.
		if r.cells[sim.Key(c.sc, c.p)] == c {
			delete(r.cells, sim.Key(c.sc, c.p))
		}
	}
	r.mu.Unlock()
	close(c.done)
}

// Submit queues the cell for execution (unless an equal cell was already
// submitted, in which case the existing one is shared) and returns a Future
// for its result. Submit never blocks on simulation work and does not count
// toward Stats — experiments prefetch their whole grid through Submit and
// collect through Wait, and only collection says whether memoization saved a
// simulation.
func (r *Runner) Submit(sc sim.Scenario, p sim.Params) *Future {
	return r.SubmitCtx(context.Background(), sc, p)
}

// SubmitCtx is Submit with a context governing the cell's simulation (see
// the package comment: the first submitter's context wins; cancelled cells
// are evicted from the memo on completion).
func (r *Runner) SubmitCtx(ctx context.Context, sc sim.Scenario, p sim.Params) *Future {
	k := sim.Key(sc, p)
	r.mu.Lock()
	if c, ok := r.cells[k]; ok {
		// Share the in-flight (or finished) cell — unless it is doomed: an
		// unsettled cell whose governing context is already dead will
		// complete with a cancellation and be evicted, so a submitter with a
		// live context starts a fresh cell instead of inheriting the corpse.
		// (Settled cells still in the memo completed without a context
		// error; eviction removed the others before their done closed.)
		if c.settled || c.ctx.Err() == nil || ctx.Err() != nil {
			r.mu.Unlock()
			return &Future{r, c}
		}
	}
	c := &cell{sc: sc, p: p, ctx: ctx, done: make(chan struct{})}
	r.cells[k] = c
	r.submitted++
	if r.closed {
		// The pool is gone; run the cell inline so late submissions still
		// complete instead of waiting forever.
		r.mu.Unlock()
		r.exec(c)
		return &Future{r, c}
	}
	r.queue = append(r.queue, c)
	r.cond.Signal()
	r.mu.Unlock()
	return &Future{r, c}
}

// Run simulates one cell, sharing any prior (or in-flight) simulation of the
// same key. It blocks until the result is available.
func (r *Runner) Run(sc sim.Scenario, p sim.Params) (*sim.Result, error) {
	return r.Submit(sc, p).Wait()
}

// RunCtx is Run under a context: the context governs the simulation when
// this call is the cell's first submitter, and always bounds the wait.
func (r *Runner) RunCtx(ctx context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
	return r.SubmitCtx(ctx, sc, p).WaitCtx(ctx)
}

// SubmitRepeat queues the rep-th independent repeat of a cell. The memo key
// is repeat-aware through seed derivation: Params.ForRepeat folds the repeat
// index into the seed, so distinct repeats are distinct cells (each simulated
// once no matter how many experiments request them) while repeat 0 shares the
// base cell with plain Submit.
func (r *Runner) SubmitRepeat(sc sim.Scenario, p sim.Params, rep int) *Future {
	return r.Submit(sc, p.ForRepeat(rep))
}

// SubmitRepeatCtx is SubmitRepeat with a context (see SubmitCtx).
func (r *Runner) SubmitRepeatCtx(ctx context.Context, sc sim.Scenario, p sim.Params, rep int) *Future {
	return r.SubmitCtx(ctx, sc, p.ForRepeat(rep))
}

// RunRepeat is SubmitRepeat followed by Wait.
func (r *Runner) RunRepeat(sc sim.Scenario, p sim.Params, rep int) (*sim.Result, error) {
	return r.SubmitRepeat(sc, p, rep).Wait()
}

// RunRepeatCtx is SubmitRepeatCtx followed by WaitCtx.
func (r *Runner) RunRepeatCtx(ctx context.Context, sc sim.Scenario, p sim.Params, rep int) (*sim.Result, error) {
	return r.SubmitRepeatCtx(ctx, sc, p, rep).WaitCtx(ctx)
}

// Stats reports collection outcomes: misses are cells whose result was
// computed for the caller (one per unique collected cell), hits are results
// served from the memo — simulations that memoization avoided.
func (r *Runner) Stats() (hits, misses uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// Completed returns the scenario names of every cell that simulated to
// success, in completion order. A timed-out grid uses this to report which
// cells finished before the deadline (repeats of one scenario appear once
// per completed repeat).
func (r *Runner) Completed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.completed...)
}

// Close lets the workers drain the queue and exit, then waits for them.
// Close is idempotent and safe to call concurrently with itself and with
// Submit: Futures obtained before Close remain valid, and Submit after (or
// racing) Close executes inline on the caller.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}
