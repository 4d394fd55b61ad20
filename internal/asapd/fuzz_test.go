package asapd

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzJobSpec drives arbitrary bodies through the submit path's decoding:
// decodeJobSpec, then plan, which runs sim.Parse on every cell. Nothing may
// panic; a job is rejected or planned within maxJobCells, and every planned
// cell passes sim.Validate. Bodies naming a trace are skipped, so the fuzz
// reads no files.
func FuzzJobSpec(f *testing.F) {
	f.Add(readmeSpec)
	f.Add(smokeSpec)
	f.Add(`{"cells":[{"workload":"mcf"},{"workload":"mcf"}],"repeats":4000000}`)
	for _, tc := range rejectedSpecs {
		f.Add(tc.body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeJobSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		for _, cs := range spec.Cells {
			if cs.Trace != "" {
				t.Skip("trace cells read files")
			}
		}
		plan, err := spec.plan()
		if err != nil {
			return
		}
		if len(plan) == 0 || len(plan) > maxJobCells {
			t.Fatalf("planned %d cells, want 1..%d", len(plan), maxJobCells)
		}
		for _, pc := range plan {
			if err := sim.Validate(pc.sc, pc.params()); err != nil {
				t.Fatalf("planned cell %s fails Validate: %v", pc.sc.Name(), err)
			}
		}
	})
}
