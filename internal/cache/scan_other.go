//go:build !amd64

package cache

// hasAVX2 is false off amd64, so every array runs the scalar scan.
const hasAVX2 = false

// The vector kernels exist only on amd64; no array calls these elsewhere.

func lookupInsert8x64(set []uint64, t uint64) bool {
	panic("cache: no vector set scan on this platform")
}

func lookupInsert20x32(set []uint32, t uint32) bool {
	panic("cache: no vector set scan on this platform")
}
