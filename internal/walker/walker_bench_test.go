package walker

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/rng"
)

// benchHeapPages is the benchmarks' heap: 1 GiB, whose 512 leaf page-table
// nodes hold 2 MB of entries, more than the L2 cache and less than the LLC.
const benchHeapPages = 512 * mem.NodeSpan

// heapStream draws n addresses uniformly from the heap of pages pages at
// start. n is a power of two, so a benchmark can cycle through the stream
// with a mask.
func heapStream(n int, start mem.VirtAddr, pages uint64) []mem.VirtAddr {
	r := rng.New(1)
	vas := make([]mem.VirtAddr, n)
	for i := range vas {
		vas[i] = start + mem.VirtAddr(r.Uint64n(pages*mem.PageSize))
	}
	return vas
}

// walkConfigs are the benchmarks' prefetch settings: the baseline walker and
// ASAP P1+P2 (in both dimensions of a nested walk).
var walkConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"baseline", core.Config{}},
	{"asap", core.Config{P1: true, P2: true}},
}

// BenchmarkWalk times one page walk of a uniformly random address in a
// 1 GiB heap, as a TLB miss would start it, including its PWC probes and
// fills and its cache accesses. native is a 1D walk; nested is the 2D walk
// of a guest whose page table an EPT over 1 GiB of guest RAM translates.
// asap adds P1+P2 prefetches from sorted page-table regions. The first pass
// over the 65,536-address stream warms the caches and PWCs untimed.
func BenchmarkWalk(b *testing.B) {
	for _, c := range walkConfigs {
		b.Run("native/"+c.name, func(b *testing.B) {
			r := newRigPages(b, c.cfg, 0, benchHeapPages)
			w := r.walker()
			vas := heapStream(1<<16, r.area.Start, benchHeapPages)
			var res Result
			var now int64
			run := func(n int) {
				for i := 0; i < n; i++ {
					w.Walk(now, r.table, vas[i&(len(vas)-1)], &res)
					now += int64(res.Cycles)
				}
			}
			run(len(vas))
			b.ResetTimer()
			run(b.N)
		})
	}
	for _, c := range walkConfigs {
		b.Run("nested/"+c.name, func(b *testing.B) {
			r := newNestedRigPages(b, c.cfg, c.cfg, false, benchHeapPages)
			w := r.walker()
			vas := heapStream(1<<16, r.area.Start, benchHeapPages)
			gpas := make([]mem.PhysAddr, len(vas))
			for i, va := range vas {
				gpas[i] = r.dataGPA(va)
			}
			var res Result
			var now int64
			run := func(n int) {
				for i := 0; i < n; i++ {
					j := i & (len(vas) - 1)
					w.Walk(now, vas[j], gpas[j], &res)
					now += int64(res.Cycles)
				}
			}
			run(len(vas))
			b.ResetTimer()
			run(b.N)
		})
	}
}
