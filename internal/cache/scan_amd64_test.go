package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// TestScanKernelMatchesLoop drives each vector kernel and the scalar scan on
// identical arrays and requires the same result from every operation and the
// same tags, array-wide, at regular points. Kernel calls alternate between
// the array's LookupInsert or Lookup (which skip the call on a way-0 hit)
// and the kernel itself (which must also get way 0 right). A Lookup that
// misses must leave its set as it was. The test counts LookupInsert and
// Lookup outcomes by what the scalar array held beforehand and fails unless
// each stream hit at every depth, missed into full sets and missed into
// partly filled ones.
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
			testScanKernel(t, vec, &vec.lruArray, loop, &loop.lruArray, lookupInsert8x64, lookup8x64)
		})
	}
	t.Run("20x32/20480", func(t *testing.T) {
		vec, loop := newLLCArray(20480, 20), newLLCArray(20480, 20)
		testScanKernel(t, vec, &vec.lruArray, loop, &loop.lruArray, lookupInsert20x32, nil)
	})
}

// scanOutcomes counts the outcomes of one operation by what the scalar array
// held beforehand: hits by depth, misses into full, partly filled and empty
// sets.
type scanOutcomes struct {
	hits                                   []int
	fullMisses, partialMisses, emptyMisses int
}

// count records the outcome of probing set for t and reports whether it is
// a hit.
func count[T tag](o *scanOutcomes, set []T, t T) bool {
	switch i := find(set, t); {
	case i >= 0:
		o.hits[i]++
		return true
	case set[0] == ^T(0):
		o.emptyMisses++
	case set[len(set)-1] == ^T(0):
		o.partialMisses++
	default:
		o.fullMisses++
	}
	return false
}

// check fails unless the stream of op hit at every depth and missed into
// full, partly filled and empty sets.
func (o *scanOutcomes) check(t *testing.T, op string) {
	t.Helper()
	for i, n := range o.hits {
		if n == 0 {
			t.Errorf("no %s hit at way %d", op, i)
		}
	}
	if o.fullMisses == 0 || o.partialMisses == 0 || o.emptyMisses == 0 {
		t.Errorf("%s misses into full sets: %d, into partly filled sets: %d, into empty sets: %d; want all three",
			op, o.fullMisses, o.partialMisses, o.emptyMisses)
	}
}

// testScanKernel compares vec, whose tags are vecArr and which must take
// kernel, and lookup unless it is nil, against loop, whose tags are loopArr,
// on the scalar scan.
func testScanKernel[T tag](t *testing.T, vec lruOps, vecArr *lruArray[T], loop lruOps, loopArr *lruArray[T], kernel, lookup func([]T, T) bool) {
	if !vecArr.vec {
		t.Fatalf("no kernel for %d ways of %T", vecArr.nways, T(0))
	}
	loopArr.vec = false
	// Two sets take every operation, so the 20-way sets fill up between
	// invalidations too.
	keys := newDiffKeys(vecArr.Entries(), vecArr.nways)
	keys.nsets = 2
	inserts := scanOutcomes{hits: make([]int, vecArr.nways)}
	lookups := scanOutcomes{hits: make([]int, vecArr.nways)}
	before := make([]T, vecArr.nways)
	const ops = 40_000
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for op := 0; op < ops; op++ {
			k := keys.key(r.Uint64n(keys.size()))
			where := func() string { return fmt.Sprintf("seed %d op %d key %#x", seed, op, k) }
			switch c := r.Intn(1000); {
			case c < 700:
				tg := T(k >> loopArr.shift)
				count(&inserts, loopArr.set(k), tg)
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
				tg := T(k >> loopArr.shift)
				hit := count(&lookups, loopArr.set(k), tg)
				copy(before, vecArr.set(k))
				want, got := loop.Lookup(k), false
				if lookup != nil && c%2 == 0 {
					got = lookup(vecArr.set(k), tg)
				} else {
					got = vec.Lookup(k)
				}
				if got != want {
					t.Fatalf("%s: Lookup = %v, loop says %v", where(), got, want)
				}
				if !hit && !slices.Equal(vecArr.set(k), before) {
					t.Fatalf("%s: a Lookup miss changed the set from %#x to %#x", where(), before, vecArr.set(k))
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
	inserts.check(t, "LookupInsert")
	lookups.check(t, "Lookup")
}

// TestAccessBurstMatchesAccess runs one stream through two hierarchies of
// the same geometry, per address through Access on one and in bursts of 1
// to 64 through AccessAll on the other, and requires the same served counts
// after every burst and the same three tag arrays every 64 bursts and at the
// end. The default geometry must take the burst kernel; a 4-way L1 must take
// the per-address loop and pass the same comparison.
//
// The stream mixes co-runner lines from a 16 GiB span, which miss into
// empty, partly filled and full sets, with lines re-touched from recency
// stacks of a few LLC sets: near the top of a stack they are hot lines that
// L1 or L2 serve, deeper down LLC-resident ones. The test counts each
// level's outcomes by what the per-address hierarchy held beforehand and
// fails unless every level hit at every way and missed into sets of all
// three kinds. Every 200th burst carries a line whose LLC tag does not fit,
// in its middle: both sides must panic with the same message after the same
// fills, and the next burst reissues it, when both must take the line from
// L1 or L2 without a panic.
func TestAccessBurstMatchesAccess(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the CPU lacks AVX2 or the OS does not save YMM state: no kernel to compare")
	}
	t.Run("default", func(t *testing.T) {
		testAccessBurst(t, DefaultConfig(), true)
	})
	t.Run("l1_4way", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.L1.Ways = 4
		testAccessBurst(t, cfg, false)
	})
}

// burstStream draws the lines of TestAccessBurstMatchesAccess. Three in
// eight are co-runner lines; the rest come from the recency stacks of
// focus, a few LLC sets, at a uniform depth below stackDepth, which is past
// the 8 + 8 + 20 ways one set spans in L1, L2 and the LLC: a depth beyond a
// stack's lines draws a new line into the set.
type burstStream struct {
	r        *rng.Stream
	llcShift uint
	focus    []uint64
	stacks   [][]uint64
}

const stackDepth = 40

func newBurstStream(r *rng.Stream, h *Hierarchy) *burstStream {
	s := &burstStream{r: r, llcShift: h.llc.shift}
	// The sets share an L1 set, and all but one an L2 set: the others'
	// traffic evicts a set's lines from L1 without touching its L2 set, and
	// from L2 without touching its LLC set, which makes shallow L2 and LLC
	// hits.
	b := r.Uint64n(uint64(h.llc.sets))
	l1Sets, l2Sets := uint64(h.l1.sets), uint64(h.l2.sets)
	for _, flip := range []uint64{0, l1Sets, l2Sets, l2Sets << 3} {
		s.focus = append(s.focus, b^flip)
		s.stacks = append(s.stacks, nil)
	}
	return s
}

func (s *burstStream) next() mem.PhysAddr {
	if s.r.Intn(8) < 3 {
		return mem.PhysAddr(s.r.Uint64n(coLines) << mem.LineShift)
	}
	i := s.r.Intn(len(s.focus))
	st := s.stacks[i]
	var line uint64
	if d := s.r.Intn(stackDepth); d < len(st) {
		line = st[d]
		st = append(st[:d], st[d+1:]...)
	} else {
		line = s.r.Uint64n(1<<20)<<s.llcShift | s.focus[i]
	}
	st = append([]uint64{line}, st...)
	s.stacks[i] = st[:min(len(st), stackDepth)]
	return mem.PhysAddr(line << mem.LineShift)
}

// hierarchyOutcomes counts L1, L2 and LLC outcomes.
type hierarchyOutcomes [3]scanOutcomes

// record counts the outcome of accessing line in h, before the access.
func (o *hierarchyOutcomes) record(h *Hierarchy, line uint64) {
	if count(&o[0], h.l1.set(line), line) || count(&o[1], h.l2.set(line), line) || line >= h.llc.limit {
		return
	}
	count(&o[2], h.llc.set(line), uint32(line>>h.llc.shift))
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func testAccessBurst(t *testing.T, cfg Config, wantBurst bool) {
	out := hierarchyOutcomes{
		{hits: make([]int, cfg.L1.Ways)},
		{hits: make([]int, cfg.L2.Ways)},
		{hits: make([]int, cfg.L3.Ways)},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		one, burst := NewHierarchy(cfg), NewHierarchy(cfg)
		if one.burst != wantBurst {
			t.Fatalf("burst path %v, want %v", one.burst, wantBurst)
		}
		r := rng.New(seed)
		stream := newBurstStream(r, one)
		var b []mem.PhysAddr
		for i := 0; i < 3000; i++ {
			where := func() string { return fmt.Sprintf("seed %d burst %d (%d lines)", seed, i, len(b)) }
			switch {
			case i%200 == 101:
				// Reissue the burst whose line panicked.
			case i%200 == 100:
				b = b[:0]
				for range 9 {
					b = append(b, stream.next())
				}
				b[4] = mem.PhysAddr((one.llc.limit + r.Uint64n(1<<20)) << mem.LineShift)
			default:
				b = b[:0]
				for n := 1 + r.Intn(64); len(b) < n; {
					b = append(b, stream.next())
				}
			}
			want := catch(func() {
				for _, a := range b {
					out.record(one, a.Line())
					one.Access(a)
				}
			})
			got := catch(func() { burst.AccessAll(b) })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: AccessAll panicked with %v, Access with %v", where(), got, want)
			}
			if (got != nil) != (i%200 == 100) {
				t.Fatalf("%s: panicked with %v; want a panic only on a line whose LLC tag does not fit", where(), got)
			}
			for s := ServedL1; s <= ServedMem; s++ {
				if c1, c2 := one.ServedCount(s), burst.ServedCount(s); c1 != c2 {
					t.Fatalf("%s: ServedCount(%v) = %d per address, %d in bursts", where(), s, c1, c2)
				}
			}
			if i%64 == 63 || i%200 == 100 {
				checkSameArrays(t, where(), one, burst)
			}
		}
		checkSameArrays(t, fmt.Sprintf("seed %d end", seed), one, burst)
	}
	for i, level := range []string{"L1", "L2", "LLC"} {
		out[i].check(t, level)
	}
}

// checkSameArrays fails unless a and b hold the same three tag arrays.
func checkSameArrays(t *testing.T, where string, a, b *Hierarchy) {
	t.Helper()
	if !slices.Equal(a.l1.tags, b.l1.tags) || !slices.Equal(a.l2.tags, b.l2.tags) || !slices.Equal(a.llc.tags, b.llc.tags) {
		t.Fatalf("%s: tag arrays differ", where)
	}
}
