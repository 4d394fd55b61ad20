package runner

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestProgressCounters drives a small grid through the pool and checks the
// counters at the points where their values are determined: all cells
// accounted submitted after the SubmitCtx loop, everything drained after the
// waits, and the Submitted = Done + InFlight + queued identity preserved at
// every snapshot in between.
func TestProgressCounters(t *testing.T) {
	var sims atomic.Int64
	r := New(2)
	r.simulate = countingSim(&sims)
	defer r.Close()

	if p := r.Progress(); p != (Progress{}) {
		t.Fatalf("fresh runner progress = %+v", p)
	}

	p := sim.DefaultParams()
	var futures []*Future
	for _, name := range []string{"mcf", "canneal", "bfs"} {
		sc := testScenario(t, name)
		futures = append(futures, r.SubmitCtx(context.Background(), sc, p))
		// Duplicate submissions share the cell and must not inflate Submitted.
		futures = append(futures, r.SubmitCtx(context.Background(), sc, p))
	}
	if pr := r.Progress(); pr.Submitted != 3 {
		t.Fatalf("submitted = %d after 3 unique cells (6 submissions)", pr.Submitted)
	}

	// While work is in flight every snapshot must be internally consistent:
	// Progress holds one lock across all three reads, so Done+InFlight can
	// never exceed Submitted even mid-drain.
	stop := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			pr := r.Progress()
			if pr.Done+pr.InFlight > pr.Submitted {
				t.Errorf("inconsistent snapshot %+v", pr)
				return
			}
		}
	}()
	for _, f := range futures {
		if _, err := f.WaitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-checked

	pr := r.Progress()
	if pr.Submitted != 3 || pr.Done != 3 || pr.InFlight != 0 {
		t.Fatalf("drained progress = %+v, want 3/3/0", pr)
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("3 unique cells simulated %d times", got)
	}
}
