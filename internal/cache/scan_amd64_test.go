package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestScanKernelMatchesLoop drives each vector kernel and the scalar scan on
// identical arrays and requires the same result from every operation and the
// same tags, array-wide, at regular points. Kernel calls alternate between
// the array's LookupInsert (which skips the call on a way-0 hit) and the
// kernel itself (which must also get way 0 right). The test counts
// LookupInsert outcomes by what the scalar array held beforehand and fails
// unless the stream hit at every depth, missed into full sets and missed
// into partly filled ones.
func TestScanKernelMatchesLoop(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the CPU lacks AVX2 or the OS does not save YMM state: no kernel to compare")
	}
	// 512 and 64 entries of 8 ways are the L1 cache and the L1 TLB. The
	// 20-way arrays are LLC arrays (32-bit tags above the set index) with a
	// sixteenth of the LLC's sets, which keeps every FlushMask and array
	// comparison cheap; TestSetAssocMatchesAgeLRU covers the full geometry.
	for _, entries := range []int{512, 64} {
		t.Run(fmt.Sprintf("8x64/%d", entries), func(t *testing.T) {
			vec, loop := NewSetAssoc(entries, 8), NewSetAssoc(entries, 8)
			testScanKernel(t, vec, &vec.lruArray, loop, &loop.lruArray, lookupInsert8x64)
		})
	}
	t.Run("20x32/20480", func(t *testing.T) {
		vec, loop := newLLCArray(20480, 20), newLLCArray(20480, 20)
		testScanKernel(t, vec, &vec.lruArray, loop, &loop.lruArray, lookupInsert20x32)
	})
}

// testScanKernel compares vec, whose tags are vecArr and which must take
// kernel, against loop, whose tags are loopArr, on the scalar scan.
func testScanKernel[T tag](t *testing.T, vec lruOps, vecArr *lruArray[T], loop lruOps, loopArr *lruArray[T], kernel func([]T, T) bool) {
	if !vecArr.vec {
		t.Fatalf("no kernel for %d ways of %T", vecArr.nways, T(0))
	}
	loopArr.vec = false
	// Two sets take every operation, so the 20-way sets fill up between
	// invalidations too.
	keys := newDiffKeys(vecArr.Entries(), vecArr.nways)
	keys.nsets = 2
	hits := make([]int, vecArr.nways)
	var fullMisses, partialMisses int
	const ops = 40_000
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for op := 0; op < ops; op++ {
			k := keys.key(r.Uint64n(keys.size()))
			where := func() string { return fmt.Sprintf("seed %d op %d key %#x", seed, op, k) }
			switch c := r.Intn(1000); {
			case c < 700:
				set, tg := loopArr.set(k), T(k>>loopArr.shift)
				switch i := find(set, tg); {
				case i >= 0:
					hits[i]++
				case set[len(set)-1] == ^T(0):
					partialMisses++
				default:
					fullMisses++
				}
				want, got := loop.LookupInsert(k), false
				if c%2 == 0 {
					got = kernel(vecArr.set(k), tg)
				} else {
					got = vec.LookupInsert(k)
				}
				if got != want {
					t.Fatalf("%s: kernel LookupInsert = %v, loop says %v", where(), got, want)
				}
			case c < 950:
				if got, want := vec.Lookup(k), loop.Lookup(k); got != want {
					t.Fatalf("%s: Lookup = %v, loop says %v", where(), got, want)
				}
			case c < 999:
				// A single-key, low-bit or ASID invalidation, which frees
				// ways in the middle of a set's recency order.
				mask, match := ^uint64(0), k
				switch {
				case c < 980:
				case c < 988:
					bit := uint64(1) << r.Uint64n(asidShift)
					mask, match = bit, bit&k
				default:
					mask, match = ^uint64(1<<asidShift-1), r.Uint64n(keys.asids)<<asidShift
				}
				if got, want := vec.FlushMask(mask, match), loop.FlushMask(mask, match); got != want {
					t.Fatalf("%s: FlushMask(%#x, %#x) = %d, loop says %d", where(), mask, match, got, want)
				}
			default:
				vec.Flush()
				loop.Flush()
			}
			if op%500 == 499 && !slices.Equal(vecArr.tags, loopArr.tags) {
				t.Fatalf("%s: tag arrays differ", where())
			}
		}
		if !slices.Equal(vecArr.tags, loopArr.tags) {
			t.Fatalf("seed %d: tag arrays differ at the end", seed)
		}
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("no LookupInsert hit at way %d", i)
		}
	}
	if fullMisses == 0 || partialMisses == 0 {
		t.Errorf("misses into full sets: %d, into partly filled sets: %d; want both", fullMisses, partialMisses)
	}
}
