package mmu

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/rng"
	"repro/internal/tlb"
	"repro/internal/virt"
	"repro/internal/walker"
)

// frameTestStream returns n addresses over a 4 KB-page area of pages4K pages
// at base4K and a 2 MB-page area of pages2M large pages at base2M. Most
// references go to a hot set of 512 base pages, which the L1 TLB cannot hold
// and the L2 TLB can, so the stream hits in both levels and still misses.
func frameTestStream(n int, base4K mem.VirtAddr, pages4K uint64, base2M mem.VirtAddr, pages2M uint64) []mem.VirtAddr {
	r := rng.New(5)
	vas := make([]mem.VirtAddr, n)
	for i := range vas {
		off := mem.VirtAddr(r.Uint64n(mem.PageSize))
		switch c := r.Intn(16); {
		case c < 12:
			vas[i] = base4K + mem.VirtAddr(r.Uint64n(512)*mem.PageSize) + off
		case c < 14:
			vas[i] = base4K + mem.VirtAddr(r.Uint64n(pages4K)*mem.PageSize) + off
		default:
			vas[i] = base2M + mem.VirtAddr(r.Uint64n(pages2M*mem.NodeSpan)*mem.PageSize) + off
		}
	}
	return vas
}

// tlbOf returns a scheme's two-level TLB.
func tlbOf(t *testing.T, s Scheme) *tlb.TwoLevel {
	switch s := s.(type) {
	case *asapScheme:
		return s.tlb
	case *victimaScheme:
		return s.tlb
	case *revelatorScheme:
		return s.tlb
	case *nestedScheme:
		return s.tlb
	}
	t.Fatalf("no TLB for %T", s)
	return nil
}

// checkTLBPaths fails unless the stream took every TLB outcome: L1 hits,
// L2 hits (which refill the L1) and misses in both.
func checkTLBPaths(t *testing.T, tl *tlb.TwoLevel) {
	t.Helper()
	if l1Hits, l2Hits := tl.Accesses-tl.L1Misses, tl.L1Misses-tl.L2Misses; l1Hits == 0 || l2Hits == 0 || tl.L2Misses == 0 {
		t.Fatalf("L1 hits %d, L2 hits %d, misses %d: want all three", l1Hits, l2Hits, tl.L2Misses)
	}
}

// TestTLBHitResolvesNoFrame drives every scheme over a stream that hits in
// both TLB levels and misses in both, and counts the calls that resolve a
// data page's frame: Process.Frame and Process.Neighbors natively, and, for
// the nested scheme, NestedConfig.DataGPA and the NestedConfig.Translate of
// the data page's guest-physical address (the nested walker also calls
// Translate for guest page-table entries, which are not frames of data
// pages). A TLB hit must resolve nothing. A fill must resolve its frame
// exactly once, and make the Clustered TLB's eight neighbour probes when it
// fills a base page into one.
func TestTLBHitResolvesNoFrame(t *testing.T) {
	const (
		base4K  = mem.VirtAddr(1 << 32)
		pages4K = 16 * mem.NodeSpan
		base2M  = mem.VirtAddr(1 << 34)
		pages2M = 8
	)
	vas := frameTestStream(20_000, base4K, pages4K, base2M, pages2M)

	table, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1}, pt.NewScatterAlloc(1<<20, 1<<16, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	table.PopulateRange(base4K, base4K+pages4K*mem.PageSize)
	for i := mem.VirtAddr(0); i < pages2M; i++ {
		table.EnsureHuge(base2M + i*mem.HugeSize)
	}

	for _, name := range Names() {
		for _, clustered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/clustered=%v", name, clustered), func(t *testing.T) {
				// Scattered frames: a Clustered TLB coalesces nothing, so
				// its reach stays below the stream's pages and the rival
				// schemes see misses to pages they have seen before.
				var frames, neighbors int
				p := &Process{
					Table: table,
					Frame: func(vpn uint64) uint64 { frames++; return rng.Mix64(vpn) >> 30 },
					Neighbors: func(vpn uint64) (uint64, bool) {
						neighbors++
						return rng.Mix64(vpn) >> 30, true
					},
				}
				s, err := New(name, Config{Hier: cache.NewHierarchy(cache.DefaultConfig()),
					MSHR: cache.NewMSHRFile(10), PWC: pwc.DefaultConfig(), ClusteredTLB: clustered})
				if err != nil {
					t.Fatal(err)
				}
				s.Attach(0, p)
				s.Boot(0)
				var wr walker.Result
				for i, va := range vas {
					frames, neighbors = 0, 0
					if !s.Translate(int64(i), va, &wr) {
						if frames != 0 || neighbors != 0 {
							t.Fatalf("ref %d: a TLB hit made %d frame and %d neighbour calls", i, frames, neighbors)
						}
						continue
					}
					wantNeighbors := 0
					if clustered && !wr.Huge {
						wantNeighbors = tlb.ClusterSpan
					}
					if frames != 1 || neighbors != wantNeighbors {
						t.Fatalf("ref %d: a fill made %d frame and %d neighbour calls, want 1 and %d",
							i, frames, neighbors, wantNeighbors)
					}
				}
				checkTLBPaths(t, tlbOf(t, s))
				if name != "asap" && s.Counters().Hits == 0 {
					t.Fatalf("%s never resolved a miss without a walk; its early fill went untested", name)
				}
			})
		}
	}

	t.Run("nested", func(t *testing.T) {
		const guestFrames = uint64(1) << 18 // 1 GiB of guest RAM
		// Guest page-table nodes sit in the top 64 MiB of guest RAM and data
		// pages below half of it, so a Translate of a data page is told
		// apart by its address.
		guestPT, err := pt.New(pt.Config{Levels: 4, LeafLevel: 1},
			pt.NewScatterAlloc(mem.Frame(guestFrames-1<<14), 1<<14, 7), false)
		if err != nil {
			t.Fatal(err)
		}
		guestPT.PopulateRange(base4K, base4K+pages4K*mem.PageSize)
		for i := mem.VirtAddr(0); i < pages2M; i++ {
			guestPT.EnsureHuge(base2M + i*mem.HugeSize)
		}
		ept, err := pt.New(virt.EPTConfig(false), pt.NewScatterAlloc(1<<22, 1<<20, 9), false)
		if err != nil {
			t.Fatal(err)
		}
		ept.PopulateRange(0, mem.VirtAddr(guestFrames*mem.PageSize))
		gmap := virt.NewGPAMap(1<<24, 1<<22, false, 42)
		dataLimit := mem.PhysAddr(guestFrames / 2 * mem.PageSize)

		var dataGPAs, dataFrames int
		s := NewNested(NestedConfig{
			Hier: cache.NewHierarchy(cache.DefaultConfig()), MSHR: cache.NewMSHRFile(10), PWC: pwc.DefaultConfig(),
			GuestPT: guestPT, HostPT: ept,
			Translate: func(gpa mem.PhysAddr) mem.PhysAddr {
				if gpa < dataLimit {
					dataFrames++
				}
				return gmap.Translate(gpa)
			},
			DataGPA: func(va mem.VirtAddr) mem.PhysAddr {
				dataGPAs++
				return mem.PhysAddr(va.VPN()%(guestFrames/2)*mem.PageSize) + mem.PhysAddr(va.PageOffset())
			},
		})
		var wr walker.Result
		for i, va := range vas {
			dataGPAs, dataFrames = 0, 0
			if !s.Translate(int64(i), va, &wr) {
				if dataGPAs != 0 || dataFrames != 0 {
					t.Fatalf("ref %d: a TLB hit made %d DataGPA and %d data-page Translate calls", i, dataGPAs, dataFrames)
				}
				continue
			}
			// The walk's final host walk translates the data page through
			// the EPT, not through Translate, so the fill's frame is the
			// only data-page Translate.
			if dataGPAs != 1 || dataFrames != 1 {
				t.Fatalf("ref %d: a fill made %d DataGPA and %d data-page Translate calls, want 1 and 1",
					i, dataGPAs, dataFrames)
			}
		}
		checkTLBPaths(t, tlbOf(t, s))
	})
}
