package tlb

import (
	"testing"

	"repro/internal/rng"
)

// pageStream draws n page numbers uniformly from [0, space). n is a power of
// two, so a benchmark can cycle through the stream with a mask.
func pageStream(n int, space, seed uint64) []uint64 {
	r := rng.New(seed)
	pages := make([]uint64, n)
	for i := range pages {
		pages[i] = r.Uint64n(space)
	}
	return pages
}

// BenchmarkTLBLookup times a 4 KB probe of one TLB and, on a miss, the fill
// a walk would make. l1 is Table 5's 64-entry 8-way L1 TLB, whose fills take
// the cache package's 8-way vector scan where the CPU has AVX2; l2 is the
// 1536-entry 6-way second level, which keeps the scalar scan everywhere.
// hit: a quarter of the TLB's capacity in pages, all resident after warm-up.
// miss: pages of the whole 48-bit address space, over 4× the entries, so
// every probe misses and fills.
func BenchmarkTLBLookup(b *testing.B) {
	units := []struct {
		name          string
		entries, ways int
	}{
		{"l1", 64, 8},
		{"l2", 1536, 6},
	}
	for _, u := range units {
		streams := []struct {
			name  string
			pages []uint64
		}{
			{"hit", pageStream(1<<12, uint64(u.entries/4), 1)},
			{"miss", pageStream(1<<16, 1<<36, 2)},
		}
		for _, st := range streams {
			b.Run(u.name+"/"+st.name, func(b *testing.B) {
				t := New(u.entries, u.ways)
				mask := len(st.pages) - 1
				run := func(n int) {
					for i := 0; i < n; i++ {
						p := st.pages[i&mask]
						if !t.Lookup(0, p, Page4K) {
							t.Insert(0, p, Page4K, 0, nil)
						}
					}
				}
				run(len(st.pages))
				b.ResetTimer()
				run(b.N)
			})
		}
	}
}
