package sim

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTrace writes a short trace of spec to a file and returns its path and
// the loaded trace.
func writeTrace(t *testing.T, spec workload.Spec) (string, *trace.Trace) {
	t.Helper()
	layout, err := workload.BuildLayout(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), spec.Name+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{Spec: spec, Seed: 42, Areas: layout.Areas()}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range layout.Areas() {
		if err := w.Add(a.Start); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, tr
}

// TestParse has one row per rule of the decoder. A row either names the
// error Parse must return or edits the plain mcf cell at the default
// parameters into the cell Parse must return.
func TestParse(t *testing.T) {
	mcf, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	tracePath, tr := writeTrace(t, mcf)
	// A capture file whose header claims a stall no shipped spec comes
	// near, as asaptrace and asapd trace cells may name.
	stalled := mcf
	stalled.DataStallCycles = 1e9
	stalledPath, _ := writeTrace(t, stalled)
	notTrace := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(notTrace, []byte("hunter2-password\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	p1 := core.Config{P1: true}
	p12 := core.Config{P1: true, P2: true}

	for _, tc := range []struct {
		name string
		cs   CellSpec
		ps   ParamSpec
		want func(*Scenario, *Params)
		err  string
	}{
		{name: "workload by name, zero keeps every default", cs: CellSpec{Workload: "mcf"}},
		{name: "unknown workload", cs: CellSpec{Workload: "no-such"}, err: "unknown workload"},
		{name: "trace names the workload", cs: CellSpec{Trace: tracePath},
			want: func(sc *Scenario, _ *Params) { sc.Trace = tr.Digest }},
		{name: "trace with its own workload", cs: CellSpec{Workload: "mcf", Trace: tracePath},
			want: func(sc *Scenario, _ *Params) { sc.Trace = tr.Digest }},
		{name: "trace with another workload", cs: CellSpec{Workload: "canneal", Trace: tracePath}, err: "records workload mcf"},
		{name: "file that is not a trace", cs: CellSpec{Trace: notTrace}, err: "not a trace file"},
		{name: "missing trace file", cs: CellSpec{Trace: notTrace + ".gone"}, err: "no such file"},
		{name: "trace header over the stall cap", cs: CellSpec{Trace: stalledPath, Colocated: true},
			err: "DataStallCycles must be in [0, 2000]"},
		{name: "asap scheme is the zero value", cs: CellSpec{Workload: "mcf", Scheme: "asap"}},
		{name: "rival scheme", cs: CellSpec{Workload: "mcf", Scheme: "victima"},
			want: func(sc *Scenario, _ *Params) { sc.Scheme = "victima" }},
		{name: "unknown scheme", cs: CellSpec{Workload: "mcf", Scheme: "no-such"}, err: "unknown translation scheme"},
		{name: "native asap config", cs: CellSpec{Workload: "mcf", ASAP: "p1+p2", Colocated: true, ClusteredTLB: true},
			want: func(sc *Scenario, _ *Params) { sc.ASAP.Native, sc.Colocated, sc.ClusteredTLB = p12, true, true }},
		{name: "prefetch levels under a rival scheme", cs: CellSpec{Workload: "mcf", Scheme: "revelator", ASAP: "p1"},
			err: "does not take ASAP prefetch levels"},
		{name: "bad native config", cs: CellSpec{Workload: "mcf", ASAP: "p9"}, err: "asap: core: unknown ASAP config"},
		{name: "guest and host configs", cs: CellSpec{Workload: "mcf", Virtualized: true, HostHugePages: true, Guest: "p1", Host: "p1+p2"},
			want: func(sc *Scenario, _ *Params) {
				sc.Virtualized, sc.HostHugePages, sc.ASAP.Guest, sc.ASAP.Host = true, true, p1, p12
			}},
		{name: "bad guest config", cs: CellSpec{Workload: "mcf", Virtualized: true, Guest: "p7"}, err: "guest: "},
		{name: "bad host config", cs: CellSpec{Workload: "mcf", Virtualized: true, Host: "p7"}, err: "host: "},
		{name: "overrides", cs: CellSpec{Workload: "mcf"},
			ps: ParamSpec{WarmupWalks: 5, MeasureWalks: 6, Seed: 7, RangeRegisters: 3, HoleProb: 0.5, FiveLevel: true},
			want: func(_ *Scenario, p *Params) {
				p.WarmupWalks, p.MeasureWalks, p.Seed, p.RangeRegisters, p.HoleProb, p.FiveLevel = 5, 6, 7, 3, 0.5, true
			}},
		{name: "negative warmup", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{WarmupWalks: -1}, err: "WarmupWalks must not be negative"},
		{name: "negative measure", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{MeasureWalks: -1}, err: "MeasureWalks must not be negative"},
		{name: "negative processes", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{Processes: -2}, err: "Processes must not be negative"},
		{name: "negative quantum", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{Processes: 2, QuantumRefs: -3}, err: "QuantumRefs must not be negative"},
		{name: "negative range registers", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{RangeRegisters: -4}, err: "RangeRegisters must not be negative"},
		{name: "negative hole probability", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{HoleProb: -0.5}, err: "HoleProb must not be negative"},
		{name: "quantum with one process", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{Processes: 1, QuantumRefs: 7}, err: "need Processes > 1"},
		{name: "flush with one process", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{FlushOnSwitch: true}, err: "need Processes > 1"},
		{name: "quantum and flush with processes", cs: CellSpec{Workload: "mcf", Mix: "mcf,canneal"},
			ps: ParamSpec{Processes: 2, QuantumRefs: 50, FlushOnSwitch: true},
			want: func(sc *Scenario, p *Params) {
				sc.Mix, p.Processes, p.QuantumRefs, p.FlushOnSwitch = "mcf,canneal", 2, 50, true
			}},
		{name: "fast protocol", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{Fast: true},
			want: func(_ *Scenario, p *Params) { *p = FastParams() }},
		{name: "fast protocol with an override", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{Fast: true, WarmupWalks: 5},
			want: func(_ *Scenario, p *Params) { *p = FastParams(); p.WarmupWalks = 5 }},
		{name: "Validate runs last", cs: CellSpec{Workload: "mcf", Virtualized: true}, ps: ParamSpec{Processes: 2},
			err: "multi-process scheduling is native-only"},
		{name: "hole probability above 1", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{HoleProb: 1.5}, err: "HoleProb must be in [0, 1]"},
		{name: "NaN hole probability", cs: CellSpec{Workload: "mcf"}, ps: ParamSpec{HoleProb: math.NaN()}, err: "HoleProb must be in [0, 1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, p, err := Parse(tc.cs, tc.ps)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				if msg := err.Error(); strings.Contains(msg, "hunter") || strings.Count(msg, notTrace) > 1 {
					t.Fatalf("error quotes file bytes or repeats the path: %q", msg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantSC, wantP := Scenario{Workload: mcf}, DefaultParams()
			if tc.want != nil {
				tc.want(&wantSC, &wantP)
			}
			if sc != wantSC {
				t.Errorf("scenario = %+v, want %+v", sc, wantSC)
			}
			if p != wantP {
				t.Errorf("params = %+v, want %+v", p, wantP)
			}
		})
	}
}
