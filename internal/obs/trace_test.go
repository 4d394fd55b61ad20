package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestNilTracerIsInert proves the zero-cost-when-disabled contract at the API
// level: every method tolerates a nil receiver, so a missed nil check in an
// emitting site degrades to a no-op instead of a crash.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.DefineProcess(0, "x")
	tr.TLBHit(1)
	tr.WalkStart(2)
	tr.Step("native", 4, "L1", 2, 3, false)
	tr.PWCLookup(2, 2, 4)
	tr.AccelProbe("range", true)
	tr.Prefetch(1, 5, 100)
	tr.MSHRDrop(2, 6)
	tr.WalkEnd(2, 10, "asap", true)
	tr.ProcessSwitch(7, 1, 3, 50)
	tr.MeasureBegin(0)
	tr.MeasureEnd(9)
	if tr.Events() != nil {
		t.Fatal("nil tracer returned events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if _, err := ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("nil tracer's JSON invalid: %v", err)
	}
}

// traceOneWalk drives a representative walk through the tracer: PWC probe,
// two steps, an accel probe, one prefetch, then the closing span.
func traceOneWalk(tr *Tracer, now int64, measured bool) {
	tr.WalkStart(now)
	tr.PWCLookup(now, 2, 3)
	tr.AccelProbe("range", true)
	tr.Step("native", 3, "L1", now+2, 4, false)
	tr.Prefetch(1, now+6, 191)
	tr.Step("native", 2, "Mem", now+6, 190, true)
	tr.WalkEnd(now, 196, "asap", measured)
}

func TestWalkContextGatesChildEvents(t *testing.T) {
	tr := NewTracer(TraceConfig{})

	// Events outside any walk context are dropped: steps, probes and
	// prefetches only make sense inside the walk that issued them.
	tr.Step("native", 4, "L1", 0, 4, false)
	tr.AccelProbe("range", false)
	tr.Prefetch(1, 0, 100)
	tr.MSHRDrop(2, 0)
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("%d events recorded outside a walk context", n)
	}

	traceOneWalk(tr, 100, true)
	names := make([]string, 0, len(tr.Events()))
	for _, e := range tr.Events() {
		names = append(names, e.Name)
	}
	want := "pwc.lookup accel.probe pt.step asap.prefetch pt.step walk"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("event order\n got %s\nwant %s", got, want)
	}

	// The closing span carries the walk's full extent and the measured flag.
	walk := tr.Events()[len(tr.Events())-1]
	if walk.Ph != 'X' || walk.TS != 100 || walk.Dur != 196 {
		t.Fatalf("walk span = %+v", walk)
	}
	var scheme, measured bool
	for _, a := range walk.Args {
		switch a.Key {
		case "scheme":
			scheme = a.Str == "asap"
		case "measured":
			measured = a.Bool
		}
	}
	if !scheme || !measured {
		t.Fatalf("walk args = %+v", walk.Args)
	}
}

func TestSamplingIsCounterBased(t *testing.T) {
	tr := NewTracer(TraceConfig{Sample: 3})
	for i := 0; i < 9; i++ {
		tr.TLBHit(int64(i))
		traceOneWalk(tr, int64(1000+i*500), false)
	}
	var walks, hits, steps int
	for _, e := range tr.Events() {
		switch e.Name {
		case "walk":
			walks++
		case "tlb.hit":
			hits++
		case "pt.step":
			steps++
		}
	}
	// Walks 0, 3, 6 and TLB hits 0, 3, 6 are sampled; every child event of an
	// unsampled walk is suppressed with it.
	if walks != 3 || hits != 3 || steps != 6 {
		t.Fatalf("sampled walks=%d hits=%d steps=%d, want 3, 3, 6", walks, hits, steps)
	}
}

// TestMetricsObserveEveryWalk proves sampling gates events only: the
// histograms see all walks and steps even when the event stream keeps 1/N.
func TestMetricsObserveEveryWalk(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TraceConfig{Sample: 1000, Metrics: reg})
	for i := 0; i < 10; i++ {
		traceOneWalk(tr, int64(i*500), true)
	}
	var walks int
	for _, e := range tr.Events() {
		if e.Name == "walk" {
			walks++
		}
	}
	if walks != 1 {
		t.Fatalf("sampled walk spans = %d, want 1", walks)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"sim_walk_latency_cycles_count 10",
		`sim_walk_step_cycles_count{served="L1"} 10`,
		`sim_walk_step_cycles_count{served="Mem"} 10`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestProcessSwitchReattributes(t *testing.T) {
	tr := NewTracer(TraceConfig{})
	tr.DefineProcess(0, "mcf")
	tr.DefineProcess(1, "canneal")
	tr.TLBHit(5)
	tr.ProcessSwitch(10, 1, 4, 400)
	tr.TLBHit(500)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	if ev[0].PID != 0 {
		t.Fatalf("pre-switch event pid = %d", ev[0].PID)
	}
	// The switch instant belongs to the outgoing process (it pays the cost);
	// everything after attributes to the incoming one.
	if ev[1].Name != "sched.switch" || ev[1].PID != 0 || ev[1].TID != TrackSched {
		t.Fatalf("switch event = %+v", ev[1])
	}
	if ev[2].PID != 1 {
		t.Fatalf("post-switch event pid = %d", ev[2].PID)
	}
}

func TestWriteJSONIsValidAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(TraceConfig{})
		tr.DefineProcess(0, "mcf")
		tr.MeasureBegin(0)
		tr.TLBHit(1)
		traceOneWalk(tr, 100, true)
		tr.ProcessSwitch(400, 1, 2, 300)
		traceOneWalk(tr, 800, true)
		tr.MeasureEnd(1100)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical traces serialized differently")
	}
	n, err := ValidateTraceJSON(a.Bytes())
	if err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, a.String())
	}
	// 12 simulation events plus process_name metadata for pid 0 (explicit)
	// and pid 1 (synthesized) and thread_name per (pid, tid) pair seen.
	if n < 12 {
		t.Fatalf("validated %d events, want >= 12", n)
	}
}

func TestValidateTraceJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":          `{"traceEvents":[`,
		"no traceEvents":    `{"foo":1}`,
		"unknown phase":     `{"traceEvents":[{"name":"e","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"scopeless instant": `{"traceEvents":[{"name":"e","ph":"i","ts":0,"pid":0,"tid":0}]}`,
		"negative duration": `{"traceEvents":[{"name":"e","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`,
		"partial overlap": `{"traceEvents":[
			{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},
			{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":1}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateTraceJSON([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same overlap on different tracks is fine — nesting is per (pid,tid).
	ok := `{"traceEvents":[
		{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":1},
		{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":2}]}`
	if _, err := ValidateTraceJSON([]byte(ok)); err != nil {
		t.Errorf("cross-track overlap rejected: %v", err)
	}
}
