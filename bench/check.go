package main

import (
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/sim"
)

// checker counts cell runs and the ones that failed, printing each failed
// check on its own line. A cell counts as failed once however many of its
// checks fail.
type checker struct {
	out               io.Writer
	attempted, failed int
}

// cell records one cell run with the problems found in it.
func (c *checker) cell(problems ...string) {
	c.attempted++
	if len(problems) == 0 {
		return
	}
	c.failed++
	for _, p := range problems {
		fmt.Fprintln(c.out, "check failed:", p)
	}
}

// firstDiff names the first field in which two results differ, or returns ""
// when they are equal.
func firstDiff(want, got *sim.Result) string {
	if *want == *got {
		return ""
	}
	vw, vg := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < vw.NumField(); i++ {
		if a, b := vw.Field(i).Interface(), vg.Field(i).Interface(); a != b {
			return fmt.Sprintf("%s %v, want %v", vw.Type().Field(i).Name, b, a)
		}
	}
	return "results differ"
}

// sameResult reports a problem when got differs from want, the result the
// same cell produced before.
func sameResult(label string, c cell, want, got *sim.Result) []string {
	if d := firstDiff(want, got); d != "" {
		return []string{fmt.Sprintf("%s %s: %s", label, c.sc.Name(), d)}
	}
	return nil
}

// invariants checks the measurement protocol on one cell's result: the
// measured window opened, a synthetic cell measured exactly MeasureWalks
// walks, the average walk latency is consistent with the cycle total, every
// ratio lies in [0, 1], and context switches happened exactly when more than
// one process shared the core.
func invariants(c cell, r *sim.Result) []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("invariant %s: ", c.sc.Name())+fmt.Sprintf(format, args...))
	}
	if r.Accesses == 0 || r.Walks == 0 {
		bad("measured window never opened (accesses %d, walks %d)", r.Accesses, r.Walks)
	}
	if c.sc.Trace == "" && r.Walks != uint64(c.p.MeasureWalks) {
		bad("walks %d, want MeasureWalks %d", r.Walks, c.p.MeasureWalks)
	}
	if got, want := r.AvgWalkLat*float64(r.Walks), float64(r.WalkCycles); math.Abs(got-want) > 1e-9*want {
		bad("AvgWalkLat × Walks = %v, WalkCycles = %v", got, want)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TLBMissRatio", r.TLBMissRatio}, {"WalkFraction", r.WalkFraction},
		{"RangeHitRate", r.RangeHitRate}, {"HostRangeHitRate", r.HostRangeHitRate},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			bad("%s %v outside [0, 1]", f.name, f.v)
		}
	}
	if multi := c.p.Processes > 1; (r.Switches > 0) != multi {
		bad("%d switches with %d processes", r.Switches, c.p.Processes)
	}
	return out
}

// sameAsCapture checks that replaying the capture with the pipeline that
// recorded it reproduces the recorded run exactly. The scenarios differ by
// construction (one names the trace), so they are not compared.
func sameAsCapture(c cell, captured, replayed *sim.Result) []string {
	a, b := *captured, *replayed
	a.Scenario, b.Scenario = sim.Scenario{}, sim.Scenario{}
	return sameResult("capture replay", c, &a, &b)
}
