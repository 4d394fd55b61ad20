package asapd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asapd/leakcheck"
)

// stepClock is a deterministic Clock that advances a fixed step per read, so
// uptime and throughput in the exposition are reproducible.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// TestMetricsPromExposition covers the /metrics content negotiation: the
// default document stays JSON (with the additive observability fields), and
// ?format=prom serves Prometheus text exposition that passes the repo's own
// lint.
func TestMetricsPromExposition(t *testing.T) {
	defer leakcheck.Check(t)()
	clk := &stepClock{now: time.Unix(1700000000, 0), step: 50 * time.Millisecond}
	s := newService(t, Config{Workers: 2, JobWorkers: 1, Clock: clk})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	st := postJob(t, srv.URL, fastSpec())
	waitJob(t, s, st.ID)

	// JSON remains the default and carries the additive fields.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{
		"queue_depth", "cells_done", "cells_per_sec_recent",
		"runner_cells_submitted", "runner_cells_done", "runner_memo_hit_rate",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/metrics JSON missing %q: %v", key, doc)
		}
	}

	// ?format=prom switches to text exposition.
	resp, err = http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"asapd_cells_done_total 2",
		"asapd_queue_capacity 16",
		"asapd_runner_cells_submitted_total",
		"# TYPE asapd_queue_depth gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsSnapshotConsistent hammers MetricsSnapshot while jobs move from
// queued to in-flight and checks the atomicity fix: because depth and
// in-flight come from one lock (and the worker's dequeue/start transition
// holds the same lock), no snapshot may show more work than the service can
// hold — the bug this pins was a reader catching a job counted in both.
func TestMetricsSnapshotConsistent(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1, JobWorkers: 1, QueueCap: 2})

	stop := make(chan struct{})
	var snapErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.MetricsSnapshot()
			if m.QueueDepth > m.QueueCap {
				snapErr = fmt.Errorf("queue depth exceeds capacity: %d/%d", m.QueueDepth, m.QueueCap)
				return
			}
			if m.QueueDepth+m.JobsInFlight > m.QueueCap+1 { // 1 job worker
				snapErr = fmt.Errorf("job counted in queue and in flight at once: %+v", m)
				return
			}
		}
	}()

	// Keep submitting stuck jobs until the queue refuses; the worker picks one
	// up, so submissions keep crossing the queued->running transition the
	// snapshot reader is racing against.
	var jobs []*Job
	for i := 0; i < 50; i++ {
		j, err := s.Submit(hugeSpec())
		if errors.Is(err, ErrBusy) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if len(jobs) >= 3 { // worker + both queue slots occupied
			break
		}
	}
	close(stop)
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	// Force-abort the stuck work.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want DeadlineExceeded", err)
	}

	// The aborted cells surface in the per-job progress as failures.
	st := jobs[0].Status()
	pr := st.Progress
	if pr.Total != 1 || pr.Failed != 1 || pr.Done != 0 || pr.Pending != 0 {
		t.Fatalf("aborted job progress = %+v", pr)
	}
}

// TestJobProgressField tracks the progress counters through a job's life:
// all-pending while queued, all-done after completion, and always summing to
// the cell count.
func TestJobProgressField(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1, JobWorkers: 1})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// A stuck job occupies the single worker so the job under test is
	// observable in its queued state; its deadline then frees the worker.
	spec := hugeSpec()
	spec.TimeoutMS = 500
	blocker, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateQueued {
		t.Fatalf("state %q, want queued behind the blocker", st.State)
	}
	if pr := st.Progress; pr.Total != 2 || pr.Pending != 2 || pr.Done != 0 || pr.Failed != 0 {
		t.Fatalf("queued progress = %+v", pr)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		st = j.Status()
		pr := st.Progress
		if pr.Done+pr.Failed+pr.Pending != pr.Total {
			t.Fatalf("progress does not sum to total: %+v", pr)
		}
		if st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if pr := st.Progress; pr.Total != 2 || pr.Done != 2 || pr.Failed != 0 || pr.Pending != 0 {
		t.Fatalf("final progress = %+v", pr)
	}
}
