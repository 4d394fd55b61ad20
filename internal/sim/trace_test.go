package sim

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bufCloser adapts a bytes.Buffer to the recorder's WriteCloser contract.
type bufCloser struct{ *bytes.Buffer }

func (bufCloser) Close() error { return nil }

func traceTestParams() Params {
	p := DefaultParams()
	p.WarmupWalks = 800
	p.MeasureWalks = 800
	return p
}

// recordScenario runs sc under a recorder and returns the live result plus
// the per-process trace bytes.
func recordScenario(t *testing.T, sc Scenario, p Params, compress bool) (*Result, map[int]*bytes.Buffer) {
	t.Helper()
	bufs := map[int]*bytes.Buffer{}
	rec := trace.NewRecorder(func(pid int) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		bufs[pid] = b
		return bufCloser{b}, nil
	}, compress)
	res, err := Run(context.Background(), sc, p, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return res, bufs
}

// TestRecordReplayFidelity is the subsystem's headline invariant: replaying a
// recorded synthetic run — page tables, VMA sets and ASAP candidate sets
// rebuilt from the trace header, references replayed verbatim — reproduces
// the originating run's translation metrics exactly, across baseline, ASAP
// and colocated scenario variants.
func TestRecordReplayFidelity(t *testing.T) {
	ResetBuildCache()
	mcf, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	p := traceTestParams()
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"baseline", Scenario{Workload: mcf}},
		{"asap-p1p2", Scenario{Workload: mcf, ASAP: cfgTestP1P2()}},
		{"colocated", Scenario{Workload: mcf, Colocated: true}},
		{"victima", Scenario{Workload: mcf, Scheme: "victima"}},
		{"revelator", Scenario{Workload: mcf, Scheme: "revelator"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, bufs := recordScenario(t, tc.sc, p, false)
			if len(bufs) != 1 {
				t.Fatalf("recorded %d processes, want 1", len(bufs))
			}
			tr, err := trace.Load(bytes.NewReader(bufs[0].Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Count == 0 {
				t.Fatal("empty trace")
			}
			// The capture spans warmup plus the measured window, so it is
			// strictly longer than the measured access count.
			if tr.Count <= live.Accesses {
				t.Fatalf("trace %d refs does not cover warmup + %d measured", tr.Count, live.Accesses)
			}
			tsc := UseTrace(tr)
			tsc.ASAP = tc.sc.ASAP
			tsc.Colocated = tc.sc.Colocated
			tsc.Scheme = tc.sc.Scheme
			replayed, err := Run(context.Background(), tsc, p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Every metric must match; only the scenario identity differs.
			replayed.Scenario = live.Scenario
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("replay diverged from capture:\nlive:     %+v\nreplayed: %+v", live, replayed)
			}
		})
	}
}

// cfgTestP1P2 builds the P1+P2 native config without exporting exp's copy.
func cfgTestP1P2() ASAPConfig {
	var c ASAPConfig
	c.Native.P1, c.Native.P2 = true, true
	return c
}

// TestRecordMultiprocPerProcessTraces checks the multi-process capture shape:
// one trace per process, each carrying its own spec and layout, jointly
// covering every reference the scheduler issued.
func TestRecordMultiprocPerProcessTraces(t *testing.T) {
	ResetBuildCache()
	mcf, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	p := traceTestParams()
	p.Processes = 3
	sc := Scenario{Workload: mcf, Mix: "mcf,canneal"}
	_, bufs := recordScenario(t, sc, p, true)
	if len(bufs) != 3 {
		t.Fatalf("recorded %d processes, want 3", len(bufs))
	}
	wantSpecs := []string{"mcf", "canneal", "mcf"} // MixFor cycles pool[i%len]
	for pid := 0; pid < 3; pid++ {
		tr, err := trace.Load(bytes.NewReader(bufs[pid].Bytes()))
		if err != nil {
			t.Fatalf("process %d: %v", pid, err)
		}
		if tr.Header.Spec.Name != wantSpecs[pid] {
			t.Fatalf("process %d spec %q, want %q", pid, tr.Header.Spec.Name, wantSpecs[pid])
		}
		if tr.Count == 0 {
			t.Fatalf("process %d trace empty", pid)
		}
		if _, err := workload.LayoutFromAreas(tr.Header.Areas); err != nil {
			t.Fatalf("process %d layout: %v", pid, err)
		}
	}
}

// TestTraceScenarioRejectsBadDimensions locks the validation: trace replay is
// native and single-process.
func TestTraceScenarioRejectsBadDimensions(t *testing.T) {
	ResetBuildCache()
	mcf, _ := workload.ByName("mcf")
	p := traceTestParams()
	p.WarmupWalks, p.MeasureWalks = 100, 100
	_, bufs := recordScenario(t, Scenario{Workload: mcf}, p, false)
	tr, err := trace.Load(bytes.NewReader(bufs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc := UseTrace(tr)
	sc.Virtualized = true
	if _, err := Run(context.Background(), sc, p, nil, nil); err == nil {
		t.Fatal("virtualized trace replay accepted")
	}
	sc = UseTrace(tr)
	pp := p
	pp.Processes = 2
	if _, err := Run(context.Background(), sc, pp, nil, nil); err == nil {
		t.Fatal("multi-process trace replay accepted")
	}
	// An unregistered digest errors cleanly.
	if _, err := Run(context.Background(), Scenario{Workload: mcf, Trace: "deadbeefdeadbeef"}, p, nil, nil); err == nil {
		t.Fatal("unregistered trace digest accepted")
	}
}

// TestTinyHandBuiltTraceReplaysCleanly guards the untrusted-input contract on
// the assembly path the decoder cannot validate: a format-valid trace with a
// minuscule layout (2 resident pages) and a contiguity-seeking spec must
// replay without panicking (FrameMap's span floor), ending dry or measuring
// whatever it contains.
func TestTinyHandBuiltTraceReplaysCleanly(t *testing.T) {
	ResetBuildCache()
	spec := workload.Spec{
		Name: "tiny", DatasetBytes: 2 * 4096, SpreadFactor: 1,
		TotalVMAs: 1, BigVMAs: 1, Contig8: 0.9, LinesPerVisit: 1,
		DataStallCycles: 10, InstrPerRef: 1,
	}
	start := mem.FromVPN(1 << 20)
	h := trace.Header{
		Spec: spec,
		Seed: 1,
		Areas: []workload.AreaSpec{
			{Start: start, Pages: 2, Resident: 2, Big: true, Name: "tiny-data"},
		},
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, h, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		w.Add(start + mem.VirtAddr(uint64(i%2)*mem.PageSize))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc := UseTrace(tr)
	sc.ASAP = cfgTestP1P2()
	p := traceTestParams()
	if _, err := Run(context.Background(), sc, p, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRunsDryBeforeWarmup locks the short-trace semantics: a replay
// whose stream ends before warmup completes reports an empty measured window
// rather than folding warmup into the metrics.
func TestTraceRunsDryBeforeWarmup(t *testing.T) {
	ResetBuildCache()
	mcf, _ := workload.ByName("mcf")
	p := traceTestParams()
	p.WarmupWalks, p.MeasureWalks = 60, 60
	_, bufs := recordScenario(t, Scenario{Workload: mcf}, p, false)
	tr, err := trace.Load(bytes.NewReader(bufs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc := UseTrace(tr)
	big := p
	big.WarmupWalks = 1 << 30 // warmup can never complete on this trace
	res, err := Run(context.Background(), sc, big, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 0 || res.Walks != 0 || res.AvgWalkLat != 0 {
		t.Fatalf("dry-before-warmup run reported a window: %+v", res)
	}
}
