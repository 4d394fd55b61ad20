package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asapd/leakcheck"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testScenario(t *testing.T, name string) sim.Scenario {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("missing workload %s", name)
	}
	return sim.Scenario{Workload: w}
}

// countingSim replaces the real simulator with a slow counter so the tests
// observe exactly how many simulations the runner executes.
func countingSim(n *atomic.Int64) func(context.Context, sim.Scenario, sim.Params) (*sim.Result, error) {
	return func(_ context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
		n.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the singleflight window
		return &sim.Result{Scenario: sc}, nil
	}
}

func TestRepeatAwareMemoization(t *testing.T) {
	var sims atomic.Int64
	r := New(4)
	r.simulate = countingSim(&sims)
	defer r.Close()

	sc := testScenario(t, "mcf")
	p := sim.DefaultParams()
	// Repeat 0 shares the base cell; each further repeat is its own cell, and
	// requesting a repeat twice memoizes like any other cell.
	if _, err := r.RunCtx(context.Background(), sc, p); err != nil {
		t.Fatal(err)
	}
	for _, rep := range []int{0, 1, 2, 1, 2, 0} {
		if _, err := r.RunCtx(context.Background(), sc, p.ForRepeat(rep)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("3 distinct repeats simulated %d times", got)
	}
	hits, misses := r.Stats()
	if misses != 3 || hits != 4 {
		t.Fatalf("stats: %d misses, %d hits (want 3, 4)", misses, hits)
	}
}

func TestMemoizationSingleflight(t *testing.T) {
	var sims atomic.Int64
	r := New(4)
	r.simulate = countingSim(&sims)
	defer r.Close()

	sc := testScenario(t, "mcf")
	p := sim.DefaultParams()
	const requests = 16
	results := make([]*sim.Result, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.RunCtx(context.Background(), sc, p)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("same cell simulated %d times, want exactly 1", got)
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("request %d got a different result object: all requesters must share one simulation", i)
		}
	}
	hits, misses := r.Stats()
	if misses != 1 || hits != requests-1 {
		t.Fatalf("stats = %d hits, %d misses; want %d hits, 1 miss", hits, misses, requests-1)
	}
}

func TestDistinctCellsSimulateSeparately(t *testing.T) {
	var sims atomic.Int64
	r := New(2)
	r.simulate = countingSim(&sims)
	defer r.Close()

	p := sim.DefaultParams()
	mcf := testScenario(t, "mcf")
	colo := mcf
	colo.Colocated = true
	p2 := p
	p2.MeasureWalks /= 2
	// Same Native config, differing only in Guest: a regression guard for the
	// cell key, which must not collapse configurations whose rendered form
	// (ASAPConfig.String) is identical.
	nativeP1 := mcf
	nativeP1.ASAP = sim.ASAPConfig{Native: core.Config{P1: true}}
	mixed := nativeP1
	mixed.ASAP.Guest = core.Config{P1: true, P2: true}

	ctx := context.Background()
	futures := []*Future{
		r.SubmitCtx(ctx, mcf, p),
		r.SubmitCtx(ctx, colo, p),     // different scenario
		r.SubmitCtx(ctx, mcf, p2),     // same scenario, different params
		r.SubmitCtx(ctx, mcf, p),      // duplicate of the first
		r.SubmitCtx(ctx, colo, p),     // duplicate of the second
		r.SubmitCtx(ctx, nativeP1, p), // distinct ASAP config
		r.SubmitCtx(ctx, mixed, p),    // same String() as nativeP1, different config
	}
	for _, f := range futures {
		if _, err := f.WaitCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := sims.Load(); got != 5 {
		t.Fatalf("simulated %d cells, want 5 unique", got)
	}
	hits, misses := r.Stats()
	if misses != 5 || hits != 2 {
		t.Fatalf("stats = %d hits, %d misses; want 2 hits, 5 misses", hits, misses)
	}
}

func TestErrorSharedByAllRequesters(t *testing.T) {
	boom := errors.New("boom")
	r := New(2)
	r.simulate = func(context.Context, sim.Scenario, sim.Params) (*sim.Result, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, boom
	}
	defer r.Close()

	sc := testScenario(t, "mcf")
	p := sim.DefaultParams()
	ctx := context.Background()
	a := r.SubmitCtx(ctx, sc, p)
	b := r.SubmitCtx(ctx, sc, p)
	if _, err := a.WaitCtx(ctx); !errors.Is(err, boom) {
		t.Fatalf("first requester got %v, want boom", err)
	}
	if _, err := b.WaitCtx(ctx); !errors.Is(err, boom) {
		t.Fatalf("second requester got %v, want boom", err)
	}
}

func TestSubmitAfterCloseRunsInline(t *testing.T) {
	var sims atomic.Int64
	r := New(1)
	r.simulate = countingSim(&sims)
	r.Close()

	res, err := r.RunCtx(context.Background(), testScenario(t, "mcf"), sim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || sims.Load() != 1 {
		t.Fatalf("submit after close: res=%v sims=%d, want inline execution", res, sims.Load())
	}
}

// TestCancelledCellIsEvicted checks the cancellation contract: a cell that
// fails with its submitter's context error is forgotten, so the next
// submission of the same key re-simulates instead of inheriting a stale
// cancellation; genuine results stay memoized.
func TestCancelledCellIsEvicted(t *testing.T) {
	defer leakcheck.Check(t)()
	var sims atomic.Int64
	r := New(2)
	r.simulate = func(ctx context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
		sims.Add(1)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &sim.Result{Scenario: sc}, nil
	}
	defer r.Close()

	sc := testScenario(t, "mcf")
	p := sim.DefaultParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the first submission runs already-cancelled
	if _, err := r.RunCtx(ctx, sc, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission returned %v, want context.Canceled", err)
	}
	// A fresh submission must re-simulate and succeed.
	res, err := r.RunCtx(context.Background(), sc, p)
	if err != nil || res == nil {
		t.Fatalf("resubmission after cancellation: res=%v err=%v", res, err)
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("simulated %d times, want 2 (cancelled + retried)", got)
	}
	// The successful result is memoized again.
	if _, err := r.RunCtx(context.Background(), sc, p); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("memoized result re-simulated (%d sims)", got)
	}
}

// TestWaitCtxDoesNotCancelSimulation checks that bounding a wait leaves the
// in-flight simulation intact for other requesters.
func TestWaitCtxDoesNotCancelSimulation(t *testing.T) {
	defer leakcheck.Check(t)()
	release := make(chan struct{})
	r := New(1)
	r.simulate = func(_ context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
		<-release
		return &sim.Result{Scenario: sc}, nil
	}

	sc := testScenario(t, "mcf")
	p := sim.DefaultParams()
	f := r.SubmitCtx(context.Background(), sc, p)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := f.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded wait returned %v, want deadline exceeded", err)
	}
	close(release)
	if res, err := f.WaitCtx(context.Background()); err != nil || res == nil {
		t.Fatalf("simulation should have survived the abandoned wait: res=%v err=%v", res, err)
	}
	r.Close()
}

// TestCloseIdempotent locks in the documented lifecycle: double Close —
// sequential and concurrent — is safe, and the pool is fully quiescent after.
func TestCloseIdempotent(t *testing.T) {
	defer leakcheck.Check(t)()
	var sims atomic.Int64
	r := New(2)
	r.simulate = countingSim(&sims)
	if _, err := r.RunCtx(context.Background(), testScenario(t, "mcf"), sim.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // second sequential Close: must not hang or panic

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { // concurrent Closes on an already-closed runner
			defer wg.Done()
			r.Close()
		}()
	}
	wg.Wait()
}

// TestCloseRacesSubmit hammers Close against concurrent Submits: every
// submitted Future must still complete (inline when it loses the race), with
// no panics, deadlocks or leaked workers.
func TestCloseRacesSubmit(t *testing.T) {
	defer leakcheck.Check(t)()
	var sims atomic.Int64
	r := New(2)
	r.simulate = func(_ context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
		sims.Add(1)
		return &sim.Result{Scenario: sc}, nil
	}

	p := sim.DefaultParams()
	names := []string{"mcf", "canneal", "redis", "mc80"}
	var wg sync.WaitGroup
	futures := make(chan *Future, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				futures <- r.SubmitCtx(context.Background(), testScenario(t, names[i%len(names)]), p.ForRepeat(rep))
			}
		}(i)
	}
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() { // Close lands mid-submission storm
			defer closers.Done()
			r.Close()
		}()
	}
	wg.Wait()
	close(futures)
	for f := range futures {
		if res, err := f.WaitCtx(context.Background()); err != nil || res == nil {
			t.Fatalf("future lost across Close: res=%v err=%v", res, err)
		}
	}
	closers.Wait()
}

func TestCompletedReportsFinishedCells(t *testing.T) {
	var sims atomic.Int64
	r := New(1)
	r.simulate = countingSim(&sims)
	defer r.Close()

	p := sim.DefaultParams()
	want := []string{}
	for _, name := range []string{"mcf", "canneal"} {
		sc := testScenario(t, name)
		if _, err := r.RunCtx(context.Background(), sc, p); err != nil {
			t.Fatal(err)
		}
		want = append(want, sc.Name())
	}
	got := r.Completed()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Completed() = %v, want %v", got, want)
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	var sims atomic.Int64
	r := New(1)
	r.simulate = countingSim(&sims)

	p := sim.DefaultParams()
	var futures []*Future
	for _, name := range []string{"mcf", "canneal", "redis"} {
		futures = append(futures, r.SubmitCtx(context.Background(), testScenario(t, name), p))
	}
	r.Close()
	for _, f := range futures {
		if _, err := f.WaitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("close drained %d cells, want 3", got)
	}
}
