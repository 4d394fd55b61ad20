package asapd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/asapd/faultfs"
	"repro/internal/asapd/leakcheck"
	"repro/internal/asapd/store"
	"repro/internal/report"
	"repro/internal/sim"
)

// fastSpec is a small two-cell grid that simulates in milliseconds.
func fastSpec() JobSpec {
	return JobSpec{
		Cells: []sim.CellSpec{
			{Workload: "mcf"},
			{Workload: "mcf", Colocated: true},
		},
		Params: sim.ParamSpec{WarmupWalks: 300, MeasureWalks: 200},
	}
}

// hugeSpec is a cell that cannot finish within any test's lifetime — it only
// ever ends by cancellation (the simulator checks its context every few
// thousand references).
func hugeSpec() JobSpec {
	return JobSpec{
		Cells:  []sim.CellSpec{{Workload: "mcf"}},
		Params: sim.ParamSpec{WarmupWalks: 1 << 30, MeasureWalks: 1 << 30},
	}
}

// The job specs README's Service section and scripts/asapd_smoke.sh submit.
const (
	readmeSpec = `{
  "cells": [{"workload": "mcf"}, {"workload": "mcf", "colocated": true}],
  "params": {"fast": true}, "repeats": 2, "timeout_ms": 600000
}`
	smokeSpec = `{"cells":[{"workload":"mcf"},{"workload":"mcf","colocated":true}],"params":{"fast":true},"repeats":2}`
)

// rejectedSpecs are job bodies Submit must refuse with a 400. want, when
// set, must appear in the error.
var rejectedSpecs = []struct{ name, body, want string }{
	{"empty grid", `{"cells": []}`, ""},
	{"unknown workload", `{"cells": [{"workload": "no-such"}]}`, ""},
	{"unknown field", `{"cellz": [{"workload": "mcf"}]}`, ""},
	{"bad asap config", `{"cells": [{"workload": "mcf", "asap": "p9"}]}`, ""},
	{"bad scheme", `{"cells": [{"workload": "mcf", "scheme": "no-such"}]}`, ""},
	{"missing trace", `{"cells": [{"trace": "/no/such/file.trace"}]}`, ""},
	{"guest sans virt", `{"cells": [{"workload": "mcf", "guest": "p1"}]}`, ""},
	{"virt plus native", `{"cells": [{"workload": "mcf", "virtualized": true, "asap": "p1"}]}`, ""},
	{"virt plus procs", `{"cells": [{"workload": "mcf", "virtualized": true}], "params": {"processes": 2}}`, ""},
	{"mix sans procs", `{"cells": [{"workload": "mcf", "mix": "mcf,canneal"}]}`, ""},
	{"hole prob > 1", `{"cells": [{"workload": "mcf"}], "params": {"hole_prob": 1.5}}`, ""},
	{"not json", `{]`, ""},
	{"flush with one process", `{"cells": [{"workload": "mcf"}], "params": {"flush_on_switch": true}}`, "Processes > 1"},
	{"quantum with one process", `{"cells": [{"workload": "mcf"}], "params": {"quantum_refs": 7}}`, "Processes > 1"},
	{"negative hole prob", `{"cells": [{"workload": "mcf"}], "params": {"hole_prob": -0.5}}`, "HoleProb"},
	{"negative warmup", `{"cells": [{"workload": "mcf"}], "params": {"warmup_walks": -1}}`, "WarmupWalks"},
	{"negative processes", `{"cells": [{"workload": "mcf"}], "params": {"processes": -2}}`, "Processes"},
	{"negative range registers", `{"cells": [{"workload": "mcf"}], "params": {"range_registers": -4}}`, "RangeRegisters"},
	{"oversized job", `{"cells":[{"workload":"mcf"}],"params":{"fast":true},"repeats":200000}`, strconv.Itoa(maxJobCells)},
}

// postJob submits spec over HTTP and returns the accepted job's status.
func postJob(t *testing.T, base string, spec JobSpec) JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getJSON decodes the 200 response to GET url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, want 200", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// waitJob blocks until the job with the given ID is done.
func waitJob(t *testing.T, s *Service, id string) {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	<-j.Done()
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdown(t *testing.T, s *Service, timeout time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// TestSubmitPollComplete is the happy path over real HTTP: submit a grid,
// wait for it, and check every cell carries a record.
func TestSubmitPollComplete(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 2, JobWorkers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	spec := fastSpec()
	spec.Repeats = 2
	st := postJob(t, srv.URL, spec)
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("initial state %q", st.State)
	}
	waitJob(t, s, st.ID)
	var final JobStatus
	getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &final)
	if final.State != StateDone {
		t.Fatalf("final state %q", final.State)
	}
	if final.Error != "" {
		t.Fatalf("job error: %s", final.Error)
	}
	if len(final.Cells) != 4 { // 2 cells x 2 repeats
		t.Fatalf("cells = %d, want 4", len(final.Cells))
	}
	for i, cell := range final.Cells {
		if cell.State != "done" || cell.Record == nil {
			t.Fatalf("cell %d: %+v", i, cell)
		}
		if cell.Source != SourceSimulated {
			t.Fatalf("cell %d source %q, want simulated (no store configured)", i, cell.Source)
		}
		if cell.Record.Experiment != "asapd" {
			t.Fatalf("cell %d experiment %q", i, cell.Record.Experiment)
		}
	}

	var m Metrics
	getJSON(t, srv.URL+"/metrics", &m)
	if m.CellsDone != 4 || m.QueueCap != 16 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestStoreRoundTripAcrossRestart proves the persistence contract end to
// end: a second service over the same store directory serves a re-submitted
// grid entirely from disk.
func TestStoreRoundTripAcrossRestart(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()

	s1 := newService(t, Config{Workers: 2, StoreDir: dir})
	j1, err := s1.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if err := shutdown(t, s1, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, Config{Workers: 2, StoreDir: dir})
	defer func() {
		if err := shutdown(t, s2, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	j2, err := s2.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	st := j2.Status()
	if st.Error != "" {
		t.Fatalf("job error: %s", st.Error)
	}
	for i, cell := range st.Cells {
		if cell.Source != SourceStore {
			t.Fatalf("cell %d source %q, want store", i, cell.Source)
		}
		if cell.Record == nil {
			t.Fatalf("cell %d has no record", i)
		}
	}
	m := s2.MetricsSnapshot()
	if m.Store == nil || m.Store.Hits != 2 || m.StoreHitRate != 1.0 {
		t.Fatalf("store metrics = %+v", m.Store)
	}
}

// TestBackpressure429 fills the queue behind a deliberately stuck job and
// checks the full refusal path: Submit returns ErrBusy, HTTP returns 429
// with Retry-After, and the forced shutdown aborts the stuck cells.
func TestBackpressure429(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1, JobWorkers: 1, QueueCap: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// First job occupies the single worker (it can only end by
	// cancellation). Wait until it is actually running so the queue state
	// below is deterministic.
	j1, err := s.Submit(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for j1.Status().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	// Second job fills the one queue slot.
	if _, err := s.Submit(hugeSpec()); err != nil {
		t.Fatal(err)
	}
	// Third is refused with backpressure.
	if _, err := s.Submit(fastSpec()); !errors.Is(err, ErrBusy) {
		t.Fatalf("Submit on full queue = %v, want ErrBusy", err)
	}

	body, _ := json.Marshal(fastSpec())
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Force-abort the stuck work: a short deadline exercises the cancel
	// path, and the leak check above proves nothing survived it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want DeadlineExceeded", err)
	}
	st := j1.Status()
	if st.State != StateDone {
		t.Fatalf("aborted job state %q", st.State)
	}
	if st.Cells[0].State != "error" || st.Cells[0].Error == "" {
		t.Fatalf("aborted cell = %+v, want structured error", st.Cells[0])
	}
}

// TestGracefulShutdownDrains submits work and immediately shuts down with a
// generous deadline: the job must complete (drained, not dropped), new work
// must be refused with 503, and no goroutine may leak.
func TestGracefulShutdownDrains(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 2, JobWorkers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := shutdown(t, s, 30*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := j.Status()
	if st.State != StateDone || st.Error != "" {
		t.Fatalf("drained job = state %q error %q", st.State, st.Error)
	}
	for i, cell := range st.Cells {
		if cell.State != "done" {
			t.Fatalf("cell %d not drained: %+v", i, cell)
		}
	}

	if _, err := s.Submit(fastSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after shutdown = %v, want ErrDraining", err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(fastSpec())
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

// TestJobTimeoutPartialResults proves a job deadline is surgical: the
// deadlined job's stuck cells carry structured deadline errors, while work
// that completes — including other jobs on the same runner — is untouched.
func TestJobTimeoutPartialResults(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 2, JobWorkers: 1})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// Two jobs race through one runner: a fast job (completes) and a
	// deadlined unfinishable one (times out). The deadline must produce a
	// per-cell structured error on the timed job without touching the fast
	// job's results.
	fast, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	huge := hugeSpec()
	huge.TimeoutMS = 300
	timed, err := s.Submit(huge)
	if err != nil {
		t.Fatal(err)
	}
	<-fast.Done()
	<-timed.Done()

	if st := fast.Status(); st.Error != "" {
		t.Fatalf("fast job dragged down: %s", st.Error)
	}
	st := timed.Status()
	if st.Error == "" || !strings.Contains(st.Error, "1/1 cells failed") {
		t.Fatalf("timed job error = %q", st.Error)
	}
	cell := st.Cells[0]
	if cell.State != "error" || !strings.Contains(cell.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("timed cell = %+v, want deadline error", cell)
	}
	if cell.Record != nil {
		t.Fatal("timed-out cell carries a record")
	}
}

// TestStoreWriteFailureIsNonFatal injects a store write fault: the job still
// succeeds (the result exists in memory) and the failure is visible in
// metrics rather than in the job.
func TestStoreWriteFailureIsNonFatal(t *testing.T) {
	defer leakcheck.Check(t)()
	faulty := faultfs.Wrap(faultfs.OS())
	s := newService(t, Config{Workers: 2, StoreDir: t.TempDir(), FS: faulty})
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	faulty.Arm(faultfs.Fault{Op: faultfs.OpSync, N: 1})

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.Error != "" {
		t.Fatalf("store fault leaked into the job: %s", st.Error)
	}
	m := s.MetricsSnapshot()
	if m.Store == nil || m.Store.WriteErrors != 1 {
		t.Fatalf("store metrics = %+v, want 1 write error", m.Store)
	}
}

// TestSubmitValidation checks that malformed specs are rejected at submit
// time with a 400, not buried as per-cell failures.
func TestSubmitValidation(t *testing.T) {
	defer leakcheck.Check(t)()
	s := newService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		if err := shutdown(t, s, 30*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// post returns the status and the error message of a submission.
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, e.Error
	}
	for _, tc := range rejectedSpecs {
		code, msg := post(tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, msg, tc.want)
		}
	}

	// A trace cell naming a file that is not a trace: the error names the
	// path once and quotes none of the file's bytes back to the client.
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, []byte("hunter2-password\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	code, msg := post(`{"cells": [{"trace": "` + path + `"}]}`)
	if code != http.StatusBadRequest || strings.Contains(msg, "hunter") || strings.Count(msg, path) != 1 {
		t.Errorf("non-trace file: status %d, error %q", code, msg)
	}

	if resp, err := http.Get(srv.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestStoreKeysPinned pins the store keys and params digests that job specs
// decode to, so a change to decoding cannot orphan existing stores. The
// specs are README's and the smoke script's, plus cells on the scheme,
// virtualization and multi-process axes.
func TestStoreKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		keys       []string // store.KeyDigest per planned cell, in plan order
		params     string   // report.Digest of the job's base parameters
	}{
		{"readme", readmeSpec,
			[]string{"2e2be5dbf9b68dcc", "d0acd54e6dd1a19c", "3ec73d581dcdee2d", "62fc6b0f8a7ca487"},
			"c2df01fc27eaaf14"},
		{"smoke", smokeSpec,
			[]string{"2e2be5dbf9b68dcc", "d0acd54e6dd1a19c", "3ec73d581dcdee2d", "62fc6b0f8a7ca487"},
			"c2df01fc27eaaf14"},
		{"axes", `{"cells": [{"workload": "mc80", "asap": "p1+p2", "colocated": true},
			{"workload": "redis", "virtualized": true, "guest": "p1+p2", "host": "p1+p2"},
			{"workload": "mc80", "scheme": "revelator"}],
			"params": {"warmup_walks": 3000, "measure_walks": 2000, "hole_prob": 0.25, "range_registers": 8}}`,
			[]string{"c05bbe1e376a1bc2", "44d933e8ad3b9ebc", "3691e3b13bf735a2"},
			"31f671cd081ecaba"},
		{"multi-process", `{"cells": [{"workload": "mcf", "mix": "mcf,canneal"}],
			"params": {"processes": 4, "quantum_refs": 500, "flush_on_switch": true, "seed": 7}}`,
			[]string{"3a357c7b9c32b31b"},
			"918cc6c18efd0954"},
	} {
		spec, err := decodeJobSpec(strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plan, err := spec.plan()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(plan) != len(tc.keys) {
			t.Fatalf("%s: %d planned cells, want %d", tc.name, len(plan), len(tc.keys))
		}
		for i, pc := range plan {
			if got := store.KeyDigest(pc.key()); got != tc.keys[i] {
				t.Errorf("%s: cell %d (%s repeat %d) store key %s, want %s", tc.name, i, pc.sc.Name(), pc.repeat, got, tc.keys[i])
			}
			if got := report.Digest(pc.base); got != tc.params {
				t.Errorf("%s: cell %d params digest %s, want %s", tc.name, i, got, tc.params)
			}
		}
	}
}
