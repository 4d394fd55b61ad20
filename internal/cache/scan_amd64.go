package cache

// The AVX2 kernels of scan_amd64.s. Each takes one whole set of its shape
// (8 ways of uint64, 20 of uint32) and compares every way with t at once.
// In the LookupInsert kernels a miss moves every way down one, dropping the
// last, and a hit at way k moves only ways 0 to k-1; either way t lands in
// way 0. That leaves the set and the result exactly as the scalar scan does,
// given that empty ways form a suffix (a miss moves empty ways only onto
// empty ways). The Lookup kernel handles a hit the same way and stores
// nothing on a miss. The caller checks that t fits below the sentinel.

//go:noescape
func lookupInsert8x64(set []uint64, t uint64) bool

//go:noescape
func lookup8x64(set []uint64, t uint64) bool

//go:noescape
func lookupInsert20x32(set []uint32, t uint32) bool

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
