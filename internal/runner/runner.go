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
// A cell is addressed by its (Scenario, Params) pair alone. Experiments
// submit their full grid up front with SubmitCtx and then collect results in
// submission order with Future.WaitCtx (or call RunCtx, which is
// SubmitCtx+WaitCtx), so rendered output is byte-identical to a sequential
// run. Independent repeats of a cell are distinct cells: callers pass
// Params.ForRepeat(rep), whose derived seed is part of the key, and repeat 0
// is the base cell itself.
//
// # Lifecycle
//
// New starts the worker pool; Close drains the queue, stops the workers and
// waits for them to exit. Close is idempotent and safe to call from multiple
// goroutines concurrently, and it is safe to race with in-flight SubmitCtx
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
	claimed bool // a WaitCtx already consumed this cell (guarded by Runner.mu)
}

// Future is a handle on a submitted cell.
type Future struct {
	r *Runner
	c *cell
}

// WaitCtx blocks until the cell's simulation completes and returns its
// result, or returns ctx.Err() if ctx ends first. An abandoned wait does not
// consume the cell, and the simulation keeps running for its other
// requesters (cancel the submission's context to abort the work itself). The
// result is shared between all requesters of the cell and must be treated as
// read-only.
//
// Stats are counted here rather than at SubmitCtx so that the common
// prefetch-then-collect pattern does not count its own prefetch as a cache
// hit: the first completed WaitCtx on a cell is the miss (the simulation
// that actually ran), every further one is a hit (a simulation avoided by
// memoization).
func (f *Future) WaitCtx(ctx context.Context) (*sim.Result, error) {
	select {
	case <-f.c.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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

// SubmitCtx queues the cell for execution under ctx and returns a Future for
// its result. An equal cell already submitted is shared instead (see the
// package comment: the first submitter's context wins, and cancelled cells
// are evicted from the memo on completion). SubmitCtx never blocks on
// simulation work and does not count toward Stats — experiments prefetch
// their whole grid through SubmitCtx and collect through WaitCtx, and only
// collection says whether memoization saved a simulation.
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

// RunCtx simulates one cell, sharing any prior (or in-flight) simulation of
// the same key, and blocks until the result is available: ctx governs the
// simulation when this call is the cell's first submitter, and always bounds
// the wait.
func (r *Runner) RunCtx(ctx context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
	return r.SubmitCtx(ctx, sc, p).WaitCtx(ctx)
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
// SubmitCtx: Futures obtained before Close remain valid, and SubmitCtx after
// (or racing) Close executes inline on the caller.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}
