package pt_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/workload"
)

// BenchmarkBuild times building a workload's native page table as the
// simulator does: a 4-level table whose nodes scatter over physical memory,
// populated with the dense prefix and sparse tail of each dataset area.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"mcf", "canneal", "redis", "pagerank"} {
		spec, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no workload %q", name)
		}
		b.Run(name, func(b *testing.B) {
			layout, err := workload.BuildLayout(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				table, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1}, pt.NewScatterAlloc(mem.Frame(1)<<26, 1<<22, 42), false)
				if err != nil {
					b.Fatal(err)
				}
				layout.Populate(table)
			}
		})
	}
}
