// Package cache models the processor-side caching structures of the paper's
// simulated memory hierarchy (Table 5): a generic set-associative array with
// true LRU, the three-level data cache hierarchy plus main memory, and the
// MSHR file that makes ASAP prefetches best-effort.
package cache

import (
	"fmt"
	"math/bits"
)

// tag is the width of a stored tag. Its all-ones value marks an empty way.
type tag interface{ ~uint32 | ~uint64 }

// lruArray is a set-associative array with true-LRU replacement that stores
// one tag of width T per key: the whole key, or only its bits above the set
// index. Sets are indexed by the low bits of the key (as hardware does), so
// conflict behaviour is realistic. Either way a key is recoverable from its
// set and tag.
//
// Only tags are stored. Each set is kept in recency order: way 0 holds the
// most recently used tag, the last valid way the least recently used one,
// and empty ways form a suffix. A touch moves the tag to way 0 and shifts
// the ways before it down by one, so the LRU victim is always the last way
// and no ages are needed.
type lruArray[T tag] struct {
	sets    int
	nways   int
	setMask uint64
	// shift is how many set-index bits a key drops to form its tag. It is
	// below 64, and masking it with 63 where it is used lets the compiler
	// skip Go's handling of oversized shifts on the hot path.
	shift uint
	limit uint64 // the first key whose tag reaches the sentinel
	tags  []T
}

// init sets up an empty array with the given geometry. entries must be a
// positive multiple of ways, and entries/ways must be a power of two. With
// dropIndex, tags omit the set-index bits; otherwise they are whole keys.
func (s *lruArray[T]) init(entries, ways int, dropIndex bool) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d entries / %d ways", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	*s = lruArray[T]{
		sets:    sets,
		nways:   ways,
		setMask: uint64(sets - 1),
		tags:    make([]T, entries),
	}
	if dropIndex {
		s.shift = uint(bits.TrailingZeros(uint(sets)))
	}
	s.limit = uint64(^T(0)) << s.shift
	s.Flush()
}

// Entries returns the total capacity in entries.
func (s *lruArray[T]) Entries() int { return s.sets * s.nways }

// Ways returns the associativity.
func (s *lruArray[T]) Ways() int { return s.nways }

// set returns the ways of key's set, most recently used first.
func (s *lruArray[T]) set(key uint64) []T {
	base := int(key&s.setMask) * s.nways
	return s.tags[base : base+s.nways]
}

// find returns the way holding t, or -1. The probe stops at the first empty
// way: empty ways form a suffix, so nothing lies beyond one.
func find[T tag](set []T, t T) int {
	for i, w := range set {
		if w == t {
			return i
		}
		if w == ^T(0) {
			return -1
		}
	}
	return -1
}

// Lookup reports whether key is present, making it the most recently used
// key of its set on a hit.
func (s *lruArray[T]) Lookup(key uint64) bool {
	if key >= s.limit {
		return false // never falsely hit an empty way
	}
	set, t := s.set(key), T(key>>(s.shift&63))
	i := find(set, t)
	if i < 0 {
		return false
	}
	copy(set[1:i+1], set[:i])
	set[0] = t
	return true
}

// Contains reports whether key is present without updating LRU state.
func (s *lruArray[T]) Contains(key uint64) bool {
	// A key whose tag does not fit is never resident.
	return key < s.limit && find(s.set(key), T(key>>(s.shift&63))) >= 0
}

// LookupInsert probes for key and, on a miss, installs it in the same scan,
// reporting whether the probe hit. Either way key ends up the most recently
// used key of its set. A miss fills the first empty way if there is one and
// otherwise evicts the LRU way. It is exactly equivalent to Lookup followed
// by Insert on a miss, at half the set scans. It panics if key's tag does not
// fit below the empty-way sentinel.
//
// The scan moves key to the front as it goes: each way it passes takes the
// tag of the way before it, and way 0 takes key's. It ends at key's old way
// on a hit, at the first empty way on a miss that has one, and past the LRU
// way (dropping it) on a miss in a full set.
func (s *lruArray[T]) LookupInsert(key uint64) bool {
	if key >= s.limit {
		panic("cache: key's tag collides with the invalid-tag sentinel")
	}
	base := int(key&s.setMask) * s.nways
	set, t := s.tags[base:base+s.nways], T(key>>(s.shift&63))
	prev := t
	for i, w := range set {
		set[i] = prev
		if w == t {
			return true
		}
		if w == ^T(0) {
			return false
		}
		prev = w
	}
	return false
}

// Insert installs key, evicting the LRU way of its set if needed. Inserting a
// present key makes it the most recently used one.
func (s *lruArray[T]) Insert(key uint64) { s.LookupInsert(key) }

// Flush invalidates every entry.
func (s *lruArray[T]) Flush() {
	for i := range s.tags {
		s.tags[i] = ^T(0)
	}
}

// FlushMask invalidates every entry whose key matches match under mask
// (key&mask == match), returning how many entries were invalidated. It is the
// selective-invalidate primitive behind ASID shootdowns: callers that pack an
// address-space identifier into the high key bits can evict one address
// space's entries without disturbing the rest. Each set is compacted in
// order, so the survivors keep their recency order and the freed ways join
// the empty suffix. Empty ways never match.
func (s *lruArray[T]) FlushMask(mask, match uint64) uint64 {
	var n uint64
	for idx := 0; idx < s.sets; idx++ {
		set := s.tags[idx*s.nways : (idx+1)*s.nways]
		kept, valid := 0, 0
		for ; valid < len(set) && set[valid] != ^T(0); valid++ {
			if key := uint64(set[valid])<<s.shift | uint64(idx); key&mask != match {
				set[kept] = set[valid]
				kept++
			}
		}
		n += uint64(valid - kept)
		for ; kept < valid; kept++ {
			set[kept] = ^T(0)
		}
	}
	return n
}

// SetAssoc is a set-associative array of 64-bit keys with true-LRU
// replacement: the building block for the L1 and L2 caches, the TLBs, the
// page-walk caches and Victima's residency shadow. It stores whole keys in
// recency-ordered sets (see lruArray); any key but 2^64-1 fits.
type SetAssoc struct{ lruArray[uint64] }

// NewSetAssoc returns an array with the given geometry. entries must be a
// positive multiple of ways, and entries/ways must be a power of two.
func NewSetAssoc(entries, ways int) *SetAssoc {
	s := new(SetAssoc)
	s.init(entries, ways, false)
	return s
}

// llcArray is the LLC's tag array: the same recency-ordered sets as a
// SetAssoc, but each way holds the 32-bit tag above the key's set-index bits,
// which halves the footprint. A key fits while its tag stays below 2^32-1;
// under the default 16384-set LLC that is every line below 2^46, and the
// simulator's machine lines all lie below 2^42.
type llcArray = lruArray[uint32]

// newLLCArray returns an empty LLC tag array with the given geometry.
func newLLCArray(entries, ways int) *llcArray {
	s := new(llcArray)
	s.init(entries, ways, true)
	return s
}
