package pwc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// vaStream draws n addresses uniformly from [0, space). n is a power of two,
// so a benchmark can cycle through the stream with a mask.
func vaStream(n int, space, seed uint64) []mem.VirtAddr {
	r := rng.New(seed)
	vas := make([]mem.VirtAddr, n)
	for i := range vas {
		vas[i] = mem.VirtAddr(r.Uint64n(space))
	}
	return vas
}

// BenchmarkPWCLookup times a lookup in Table 5's split PWC and, on a miss in
// all three structures, the PL4, PL3 and PL2 fills a 4-level walk makes. hit:
// addresses in sixteen 2 MB regions, whose PL2 entries all stay in the
// 32-entry 4-way structure after warm-up. miss: addresses of the whole
// 48-bit space, so nearly every lookup misses all three and fills.
func BenchmarkPWCLookup(b *testing.B) {
	streams := []struct {
		name string
		vas  []mem.VirtAddr
	}{
		{"hit", vaStream(1<<12, 16<<21, 1)},
		{"miss", vaStream(1<<16, 1<<48, 2)},
	}
	for _, st := range streams {
		b.Run(st.name, func(b *testing.B) {
			p := New(DefaultConfig())
			mask := len(st.vas) - 1
			run := func(n int) {
				for i := 0; i < n; i++ {
					va := st.vas[i&mask]
					if p.Lookup(va, 4) == 4 {
						p.Insert(va, 4)
						p.Insert(va, 3)
						p.Insert(va, 2)
					}
				}
			}
			run(len(st.vas))
			b.ResetTimer()
			run(b.N)
		})
	}
}
