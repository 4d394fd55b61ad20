package cache

import "repro/internal/mem"

// The AVX2 kernels of scan_amd64.s. Each per-set kernel takes one whole set
// of its shape (8 ways of uint64, 20 of uint32) and compares every way with
// t at once. In the LookupInsert kernels a miss moves every way down one,
// dropping the last, and a hit at way k moves only ways 0 to k-1; either way
// t lands in way 0. That leaves the set and the result exactly as the scalar
// scan does, given that empty ways form a suffix (a miss moves empty ways
// only onto empty ways). The Lookup kernel handles a hit the same way and
// stores nothing on a miss. The caller checks that t fits below the
// sentinel.
//
// accessBurst runs Hierarchy.AccessAll's bursts (see there) through the same
// compare, miss and hit sequences. It returns how many addresses it took,
// stopping before the first line at or above llcLimit, and how many of them
// each level served; the rest missed everywhere.

//go:noescape
func lookupInsert8x64(set []uint64, t uint64) bool

//go:noescape
func lookup8x64(set []uint64, t uint64) bool

//go:noescape
func lookupInsert20x32(set []uint32, t uint32) bool

//go:noescape
func accessBurst(l1, l2 []uint64, llc []uint32, l1Mask, l2Mask, llcMask, llcShift, llcLimit uint64, addrs []mem.PhysAddr) (n int, l1Hits, l2Hits, llcHits uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
