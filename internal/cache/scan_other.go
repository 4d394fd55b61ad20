//go:build !amd64

package cache

import "repro/internal/mem"

// hasAVX2 is false off amd64, so every array runs the scalar scan.
const hasAVX2 = false

// The vector kernels exist only on amd64; no array calls these elsewhere.

func lookupInsert8x64(set []uint64, t uint64) bool {
	panic("cache: no vector set scan on this platform")
}

func lookup8x64(set []uint64, t uint64) bool {
	panic("cache: no vector set scan on this platform")
}

func lookupInsert20x32(set []uint32, t uint32) bool {
	panic("cache: no vector set scan on this platform")
}

func accessBurst(l1, l2 []uint64, llc []uint32, l1Mask, l2Mask, llcMask, llcShift, llcLimit uint64, addrs []mem.PhysAddr) (n int, l1Hits, l2Hits, llcHits uint64) {
	panic("cache: no vector set scan on this platform")
}
