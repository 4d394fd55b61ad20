package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	// Set-up children re-execute the test binary.
	if arg := os.Getenv(setupChildEnv); arg != "" {
		if err := setupChild(arg, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smallOptions is a reduced protocol: few walks per cell, one set-up child,
// short probes, and a budget that stops after the fewest iterations.
func smallOptions(name string, traced bool, stderr *bytes.Buffer) options {
	p := sim.DefaultParams()
	p.WarmupWalks, p.MeasureWalks = 500, 500
	return options{
		workload: name, seed: 42, seconds: 1e-9, traced: traced,
		protocol: p, setupRuns: 1, probeCalls: 10_000,
		newSimulator: newRunner, stderr: stderr,
	}
}

// benchmarkJSON is the declaration at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload traced on the reduced protocol: one untraced
// and one traced iteration, the probes and the span tree. Every check must
// pass, and the metrics must be exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stderr bytes.Buffer
			rep, err := run(context.Background(), smallOptions(w.name, true, &stderr))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("failed %d of %d cell runs:\n%s", rep.failed, rep.attempted, stderr.String())
			}
			if len(rep.e2e) != len(decl.EndToEnd) {
				t.Fatalf("%d end-to-end metrics, BENCHMARK.json declares %d", len(rep.e2e), len(decl.EndToEnd))
			}
			for i, m := range rep.e2e {
				if d := decl.EndToEnd[i]; m.name != d.Name || m.unit != d.Unit || !(m.value > 0) {
					t.Errorf("end-to-end metric %d: %s %v %s, declared %s %s", i, m.name, m.value, m.unit, d.Name, d.Unit)
				}
			}
			if len(rep.layer) != len(decl.PerLayer) {
				t.Fatalf("%d per-layer metrics, BENCHMARK.json declares %d", len(rep.layer), len(decl.PerLayer))
			}
			for i, m := range rep.layer {
				if d := decl.PerLayer[i]; m.name != d.Name || m.unit != d.Unit || math.IsNaN(m.value) {
					t.Errorf("per-layer metric %d: %s %v %s, declared %s %s", i, m.name, m.value, m.unit, d.Name, d.Unit)
				}
			}
			checkSpanTree(t, rep.spans)
			var out bytes.Buffer
			if err := printReport(&out, smallOptions(w.name, true, nil), rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not a result: %v", err)
			}
			if !res.Correct || len(res.Metrics) != len(decl.PerLayer) {
				t.Errorf("result line: correct %v with %d metrics", res.Correct, len(res.Metrics))
			}
		})
	}
}

// checkSpanTree requires every span to be closed and to lie inside its
// parent, with parents recorded before their children.
func checkSpanTree(t *testing.T, spans []span) {
	t.Helper()
	names := map[string]bool{}
	for i, s := range spans {
		names[s.Name] = true
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("span %d %q: id %d, [%v, %v]", i, s.Name, s.ID, s.Start, s.End)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %q recorded before its parent", s.Name)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %q [%v, %v] outside parent %q [%v, %v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, n := range []string{"run", "setup", "calibration", "iteration", "cell", "probes", "cache.llc_lookupinsert_ns"} {
		if !names[n] {
			t.Errorf("no %q span", n)
		}
	}
}

// perturbing returns a simulator factory whose results are the real ones,
// altered by perturb.
func perturbing(perturb func(r *sim.Result)) func() (simulateFunc, func()) {
	return func() (simulateFunc, func()) {
		simulate, release := newRunner()
		return func(ctx context.Context, sc sim.Scenario, p sim.Params) (*sim.Result, error) {
			r, err := simulate(ctx, sc, p)
			if err != nil {
				return nil, err
			}
			c := *r
			perturb(&c)
			return &c, nil
		}, release
	}
}

func TestCheckCountsPerturbedResult(t *testing.T) {
	var stderr bytes.Buffer
	o := smallOptions("isolated", false, &stderr)
	o.newSimulator = perturbing(func(r *sim.Result) {
		if r.Scenario.Virtualized {
			r.AvgWalkLat += 0.5
		}
	})
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 6 {
		t.Errorf("failed %d cell runs, want the 6 virtualized ones:\n%s", rep.failed, stderr.String())
	}
	if !strings.Contains(stderr.String(), "AvgWalkLat") {
		t.Errorf("stderr does not name the differing field:\n%s", stderr.String())
	}
}

func TestCheckCountsNondeterministicSimulator(t *testing.T) {
	var stderr bytes.Buffer
	o := smallOptions("multiproc", true, &stderr)
	var calls atomic.Uint64
	o.newSimulator = perturbing(func(r *sim.Result) { r.WalkCycles += calls.Add(1) })
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("a nondeterministic simulator passed every check:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "traced iteration") {
		t.Errorf("the traced iteration was not compared with the untraced one:\n%s", stderr.String())
	}
}

func TestInvariants(t *testing.T) {
	c := cell{sim.Scenario{}, sim.DefaultParams()}
	good := sim.Result{Accesses: 10, Walks: uint64(c.p.MeasureWalks), WalkCycles: 150 * uint64(c.p.MeasureWalks), AvgWalkLat: 150, TLBMissRatio: 0.1}
	if p := invariants(c, &good); len(p) != 0 {
		t.Fatalf("good result flagged: %v", p)
	}
	for name, mutate := range map[string]func(r *sim.Result){
		"window":  func(r *sim.Result) { r.Accesses = 0 },
		"walks":   func(r *sim.Result) { r.Walks--; r.WalkCycles -= 150 },
		"latency": func(r *sim.Result) { r.AvgWalkLat++ },
		"ratio":   func(r *sim.Result) { r.WalkFraction = 1.5 },
		"switch":  func(r *sim.Result) { r.Switches = 1 },
	} {
		r := good
		mutate(&r)
		if p := invariants(c, &r); len(p) == 0 {
			t.Errorf("%s: violation not reported", name)
		}
	}
}

// TestAssembliesFitBuildCache guards the timed iterations against rebuilding
// page tables: sim memoizes at most 12 assemblies, so a grid needing more
// would evict and rebuild inside every timed pass. The keys mirror the
// simulator's assembly identities.
func TestAssembliesFitBuildCache(t *testing.T) {
	const buildCacheCap = 12
	want := map[string]int{"colo": 9, "isolated": 12, "multiproc": 8, "schemes": 5}
	p := sim.DefaultParams()
	raw, _, err := recordCapture(shortParams(p))
	if err != nil {
		t.Fatal(err)
	}
	capture, err := loadCapture(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cells, err := w.cells(p, capture)
		if err != nil {
			t.Fatal(err)
		}
		if w.name == "schemes" {
			sc, err := captureScenario()
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{sc, p})
		}
		keys := map[string]bool{}
		for _, c := range cells {
			sc := c.sc
			switch {
			case sc.Trace != "":
				keys[fmt.Sprint("trace", sc.Trace, sc.ASAP.Native.Enabled())] = true
			case sc.Virtualized:
				keys[fmt.Sprint("virt", sc.Workload.Name, sc.ASAP.Guest.Enabled(), sc.ASAP.Host.Enabled(), sc.HostHugePages)] = true
			default:
				mix, err := workload.MixFor(sc.Workload, sc.Mix, max(1, c.p.Processes))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range mix.Specs {
					keys[fmt.Sprint("native", s.Name, sc.ASAP.Native.Enabled())] = true
				}
			}
		}
		if len(keys) > buildCacheCap || len(keys) != want[w.name] {
			t.Errorf("%s builds %d assemblies, want %d (cap %d)", w.name, len(keys), want[w.name], buildCacheCap)
		}
	}
}

// shortParams is p at a protocol short enough for set-up-only tests.
func shortParams(p sim.Params) sim.Params {
	p.WarmupWalks, p.MeasureWalks = 100, 100
	return p
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) and statistics.median in Python 3.
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7, 9}, 6.5, 8, 9.5},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || median(tc.xs) != tc.med || q3 != tc.q3 {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(xs[:10], 50); v != 95 || beyond != 5 {
		t.Errorf("p50 of 91..100 = %v with %d beyond, want 95 with 5", v, beyond)
	}
	if v, beyond := percentile([]float64{2, 2, 2}, 50); v != 2 || beyond != 0 {
		t.Errorf("p50 of ties = %v with %d beyond, want 2 with 0", v, beyond)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "cell", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "cell", Start: 3 * ms, End: 6 * ms}, // overlaps the first
		{ID: 4, Parent: 1, Name: "cell", Start: 8 * ms, End: 9 * ms},
		{ID: 5, Parent: 3, Name: "probe", Start: 4 * ms, End: 5 * ms},
	}
	self := selfTimes(spans)
	// The cells cover [1,6] and [8,9] of the iteration: 6 of its 10 ms.
	if self["iteration"] != 4*ms {
		t.Errorf("iteration self time %v, want 4ms", self["iteration"])
	}
	// 3 + (3 - 1) + 1 ms.
	if self["cell"] != 6*ms || self["probe"] != ms {
		t.Errorf("cell self %v probe self %v, want 6ms and 1ms", self["cell"], self["probe"])
	}
}

func runsOf(workload string, metric string, values ...float64) []runOutput {
	out := make([]runOutput, len(values))
	for i, v := range values {
		out[i] = runOutput{workload: workload, correct: true, metrics: map[string]float64{metric: v}}
	}
	return out
}

func verdictFor(vs []verdict, workload, metric string) verdict {
	for _, v := range vs {
		if v.workload == workload && v.metric == metric {
			return v
		}
	}
	return verdict{}
}

// TestCompareDoesNotLetAGeomeanHideARegression: one workload twice as fast
// and another 30% slower make a geomean that reads as a 19% gain, but each
// workload is judged on its own and the regression is reported.
func TestCompareDoesNotLetAGeomeanHideARegression(t *testing.T) {
	jitter := []float64{0, 0.01, -0.01, 0.02, -0.02, 0.005, -0.005, 0.015, -0.015, 0}
	scaled := func(base, f float64) []float64 {
		out := make([]float64, len(jitter))
		for i, j := range jitter {
			out[i] = base * f * (1 + j)
		}
		return out
	}
	parent := append(runsOf("colo", "wall_s", scaled(10, 1)...), runsOf("isolated", "wall_s", scaled(1, 1)...)...)
	change := append(runsOf("colo", "wall_s", scaled(10, 0.5)...), runsOf("isolated", "wall_s", scaled(1, 1.3)...)...)
	vs := compareRuns(parent, change)

	geomean := math.Sqrt(0.5 * 1.3)
	if geomean >= 0.9 {
		t.Fatalf("geomean %v should read as a gain", geomean)
	}
	if v := verdictFor(vs, "colo", "wall_s"); v.verdict != "faster" || v.wins != 10 {
		t.Errorf("colo: %s with %d wins, want faster with 10", v.verdict, v.wins)
	}
	if v := verdictFor(vs, "isolated", "wall_s"); v.verdict != "slower" {
		t.Errorf("isolated: %s (%.1f%% worse), want slower", v.verdict, 100*v.worse)
	}
}

func TestJudge(t *testing.T) {
	wall := endToEnd[0]
	rate := endToEnd[2]
	ten := func(f func(i int) float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	steady := ten(func(i int) float64 { return 100 + float64(i%3) })
	for _, tc := range []struct {
		name           string
		spec           metricSpec
		parent, change []float64
		failures       bool
		want           string
	}{
		{"few pairs", wall, steady[:9], steady[:9], false, "unresolved"},
		{"same", wall, steady, steady, false, "within-noise"},
		{"small gain inside the bound", wall, steady, ten(func(i int) float64 { return 97 + float64(i%3) }), false, "faster"},
		{"gain with more failures", wall, steady, ten(func(i int) float64 { return 90 }), true, "within-noise"},
		{"rate drop beyond the bound", rate, steady, ten(func(i int) float64 { return 70 }), false, "slower"},
		{"rate drop inside the bound", rate, steady, ten(func(i int) float64 { return 80 }), false, "within-noise"},
		{"rate gain", rate, steady, ten(func(i int) float64 { return 120 }), false, "faster"},
		{"noisy parent", wall, ten(func(i int) float64 { return 100 + 40*float64(i%2) }), steady, false, "unresolved"},
	} {
		if v := judge(tc.spec, tc.parent, tc.change, tc.failures); v.verdict != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, v.verdict, tc.want)
		}
	}
}

func TestCompareReadsRunOutputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(dir+"/"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.txt", "bench: workload=colo seed=1 trace=0 clients=2\nwall_s 1 s\n"+
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}`+"\n")
	write("b.txt", "bench: workload=colo seed=1 trace=1 clients=2\n"+
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"sim.cell_ms_p50":{"value":1,"unit":"ms"}}}`+"\n")
	runs, err := readRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].workload != "colo" || runs[0].metrics["wall_s"] != 1.5 {
		t.Errorf("read %+v, want the one untraced colo run", runs)
	}
	write("a.err", "bench: iteration 0 traced=false wall 1s\n")
	if runs, err := readRuns(dir); err != nil || len(runs) != 1 {
		t.Errorf("standard-error files were read: %v %v", runs, err)
	}
	write("c.txt", "no header\n")
	if _, err := readRuns(dir); err == nil {
		t.Error("a file without a result was accepted")
	}
}

func TestRunMainRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "colo", "-trace", "2"},
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "colo", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := runMain(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestBenchmarkJSONDeclaresTheBenchmark(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %q: %q", i, b.Workloads[i].Name, b.Workloads[i].Why)
		}
	}
	for i, m := range endToEnd {
		d := b.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end %d declared as %+v, defined as %+v", i, d, m)
		}
	}
}
