package workload

import "testing"

// BenchmarkGeneratorNext times one reference of a synthetic workload, for
// each access pattern: mcf (chase), canneal (uniform), redis (zipf) and
// pagerank (graph-scan), each over its own Table 3 layout.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"mcf", "canneal", "redis", "pagerank"} {
		spec, ok := ByName(name)
		if !ok {
			b.Fatalf("no workload %q", name)
		}
		b.Run(spec.Pattern.String(), func(b *testing.B) {
			layout, err := BuildLayout(spec)
			if err != nil {
				b.Fatal(err)
			}
			g := NewGenerator(spec, layout, 42)
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += uint64(g.Next())
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
