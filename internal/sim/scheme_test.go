package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/workload"
)

func schemeTestParams() Params {
	p := DefaultParams()
	p.WarmupWalks = 800
	p.MeasureWalks = 800
	return p
}

// TestRunValidatesScheme locks the scheme-axis validation: unknown names and
// contradictory dimension combinations fail loudly instead of silently
// running something else.
func TestRunValidatesScheme(t *testing.T) {
	ResetBuildCache()
	mcf, _ := workload.ByName("mcf")
	p := schemeTestParams()
	if _, err := Run(context.Background(), Scenario{Workload: mcf, Scheme: "bogus"}, p, nil, nil); err == nil {
		t.Fatal("unknown scheme accepted")
	} else if !strings.Contains(err.Error(), "victima") {
		t.Fatalf("unknown-scheme error does not list valid names: %v", err)
	}
	for _, scheme := range []string{"victima", "revelator"} {
		if _, err := Run(context.Background(), Scenario{Workload: mcf, Scheme: scheme, Virtualized: true}, p, nil, nil); err == nil {
			t.Fatalf("%s + virtualized accepted", scheme)
		}
		if _, err := Run(context.Background(), Scenario{Workload: mcf, Scheme: scheme, ASAP: cfgTestP1P2()}, p, nil, nil); err == nil {
			t.Fatalf("%s + ASAP prefetch accepted", scheme)
		}
	}
	// The explicit asap selection is valid and carries the axis through the
	// scenario name.
	res, err := Run(context.Background(), Scenario{Workload: mcf, Scheme: "asap"}, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Scenario.Name(), "+mmu[asap]") {
		t.Fatalf("scenario name %q lacks the scheme marker", res.Scenario.Name())
	}
}

// TestRivalSchemesRun exercises both rival backends end to end: runs succeed,
// walks happen, and each scheme's acceleration mechanism reports probes (and
// some hits) through the shared counters.
func TestRivalSchemesRun(t *testing.T) {
	ResetBuildCache()
	mcf, _ := workload.ByName("mcf")
	p := schemeTestParams()
	base, err := Run(context.Background(), Scenario{Workload: mcf}, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"victima", "revelator"} {
		t.Run(scheme, func(t *testing.T) {
			res, err := Run(context.Background(), Scenario{Workload: mcf, Scheme: scheme}, p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Walks == 0 || res.AvgWalkLat <= 0 {
				t.Fatalf("no measured walks: %+v", res)
			}
			if res.RangeHitRate <= 0 {
				t.Fatalf("%s mechanism never hit (rate %v)", scheme, res.RangeHitRate)
			}
			if res.RangeHitRate >= 1 {
				t.Fatalf("%s mechanism hit rate %v not a miss/hit mix", scheme, res.RangeHitRate)
			}
			// Same TLB geometry, same reference stream: the TLB-level metrics
			// must match the baseline exactly; only the miss path differs.
			if res.TLBMissRatio != base.TLBMissRatio || res.MPKI != base.MPKI {
				t.Fatalf("%s perturbed the TLB level: %v/%v vs baseline %v/%v",
					scheme, res.TLBMissRatio, res.MPKI, base.TLBMissRatio, base.MPKI)
			}
		})
	}
}

// TestRivalSchemesMultiprocessPolicies runs the rival schemes under the
// quantum scheduler with both context-switch policies: the flush policy
// reports shootdown flushes in the measured window, ASID-tagged retention
// reports none, and switches never cost descriptor-swap volume (the rivals
// have no register file to save).
func TestRivalSchemesMultiprocessPolicies(t *testing.T) {
	ResetBuildCache()
	mcf, _ := workload.ByName("mcf")
	for _, scheme := range []string{"victima", "revelator"} {
		for _, flush := range []bool{true, false} {
			p := schemeTestParams()
			p.Processes = 2
			p.FlushOnSwitch = flush
			res, err := Run(context.Background(), Scenario{Workload: mcf, Scheme: scheme, Mix: "mcf,canneal"}, p, nil, nil)
			if err != nil {
				t.Fatalf("%s flush=%v: %v", scheme, flush, err)
			}
			if res.Switches == 0 {
				t.Fatalf("%s flush=%v: no switches in the measured window", scheme, flush)
			}
			if flush && res.ShootdownFlushes == 0 {
				t.Fatalf("%s: flush policy reported no TLB flushes", scheme)
			}
			if !flush && res.ShootdownFlushes != 0 {
				t.Fatalf("%s: ASID policy reported %d flushes", scheme, res.ShootdownFlushes)
			}
		}
	}
}
