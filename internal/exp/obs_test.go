package exp

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedCannealRun replays the checked-in canneal capture with the full ASAP
// configuration under an event tracer, using the same reduced protocol as the
// golden tests.
func tracedCannealRun(t *testing.T, tr *obs.Tracer) *sim.Result {
	t.Helper()
	ref, err := trace.LoadFile(filepath.Join("testdata", "canneal.trc.gz"))
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.UseTrace(ref)
	sc.ASAP = cfgP1P2 // prefetching on, so prefetch/MSHR events appear too
	p := sim.DefaultParams()
	p.WarmupWalks = 1500
	p.MeasureWalks = 1500
	res, err := sim.Run(context.Background(), sc, p, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracedWalkSpansSumToWalkCycles is the tracer's accounting acceptance
// check: with sampling off, the walk spans flagged measured must reproduce the
// simulator's own aggregates exactly — same walk count, same total cycles.
// Any drift means the tracer and the measurement window disagree about what a
// walk is, which would make traces lie about the numbers the tables report.
func TestTracedWalkSpansSumToWalkCycles(t *testing.T) {
	sim.ResetBuildCache()
	tr := obs.NewTracer(obs.TraceConfig{Sample: 1})
	res := tracedCannealRun(t, tr)
	if res.Walks == 0 {
		t.Fatal("replay produced no measured walks")
	}

	var walks, cycles uint64
	for _, e := range tr.Events() {
		if e.Name != "walk" {
			continue
		}
		measured := false
		for _, a := range e.Args {
			if a.Key == "measured" {
				measured = a.Bool
			}
		}
		if !measured {
			continue
		}
		walks++
		cycles += uint64(e.Dur)
	}
	if walks != res.Walks {
		t.Fatalf("measured walk spans = %d, Result.Walks = %d", walks, res.Walks)
	}
	if cycles != res.WalkCycles {
		t.Fatalf("measured walk span cycles = %d, Result.WalkCycles = %d", cycles, res.WalkCycles)
	}

	// The serialized trace must satisfy the same validation CI applies: real
	// trace_event JSON with strictly nested spans per track.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("trace JSON validated zero events")
	}
}

// TestTracedRunsAreByteIdentical pins trace determinism end to end: two
// identical fast replays serialize byte-for-byte the same trace, so recorded
// traces are diffable artifacts rather than run-scoped curiosities.
func TestTracedRunsAreByteIdentical(t *testing.T) {
	sim.ResetBuildCache()
	run := func() []byte {
		tr := obs.NewTracer(obs.TraceConfig{Sample: 4})
		tracedCannealRun(t, tr)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical traced runs serialized differently")
	}
}
