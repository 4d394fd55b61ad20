// Package cache models the processor-side caching structures of the paper's
// simulated memory hierarchy (Table 5): a generic set-associative array with
// true LRU, the three-level data cache hierarchy plus main memory, and the
// MSHR file that makes ASAP prefetches best-effort.
package cache

import "fmt"

// invalidTag marks an empty way. Keys are cache-line numbers, page numbers or
// VA prefixes, all far below 2^64-1, so the sentinel can never collide with a
// real key; Insert enforces this.
const invalidTag = ^uint64(0)

// SetAssoc is a set-associative array of 64-bit keys with true-LRU
// replacement. It is the building block for caches, TLBs and page-walk
// caches. Sets are indexed by the low bits of the key (as hardware does), so
// conflict behaviour is realistic.
//
// Only tags are stored. Each set is kept in recency order: way 0 holds the
// most recently used key, the last valid way the least recently used one, and
// empty ways form a suffix. A touch moves the key to way 0 and shifts the
// ways before it down by one, so the LRU victim is always the last way and
// no ages are needed.
type SetAssoc struct {
	sets    int
	nways   int
	setMask uint64
	tags    []uint64
}

// NewSetAssoc returns an array with the given geometry. entries must be a
// positive multiple of ways, and entries/ways must be a power of two.
func NewSetAssoc(entries, ways int) *SetAssoc {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d entries / %d ways", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	s := &SetAssoc{
		sets:    sets,
		nways:   ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, entries),
	}
	s.Flush()
	return s
}

// Entries returns the total capacity in entries.
func (s *SetAssoc) Entries() int { return s.sets * s.nways }

// Ways returns the associativity.
func (s *SetAssoc) Ways() int { return s.nways }

// set returns the ways of key's set, most recently used first.
func (s *SetAssoc) set(key uint64) []uint64 {
	base := int(key&s.setMask) * s.nways
	return s.tags[base : base+s.nways]
}

// find returns the way holding key, or -1. The probe stops at the first empty
// way: empty ways form a suffix, so nothing lies beyond one.
func find(set []uint64, key uint64) int {
	for i, t := range set {
		if t == key {
			return i
		}
		if t == invalidTag {
			return -1
		}
	}
	return -1
}

// Lookup reports whether key is present, making it the most recently used
// key of its set on a hit.
func (s *SetAssoc) Lookup(key uint64) bool {
	if key == invalidTag {
		return false // never falsely hit an empty way
	}
	set := s.set(key)
	i := find(set, key)
	if i < 0 {
		return false
	}
	copy(set[1:i+1], set[:i])
	set[0] = key
	return true
}

// Contains reports whether key is present without updating LRU state.
func (s *SetAssoc) Contains(key uint64) bool {
	if key == invalidTag {
		return false // never falsely hit an empty way
	}
	return find(s.set(key), key) >= 0
}

// LookupInsert probes for key and, on a miss, installs it in the same scan,
// reporting whether the probe hit. Either way key ends up the most recently
// used key of its set. A miss fills the first empty way if there is one and
// otherwise evicts the LRU way. It is exactly equivalent to Lookup followed
// by Insert on a miss, at half the set scans.
//
// The scan moves key to the front as it goes: each way it passes takes the
// tag of the way before it, and way 0 takes key. It ends at key's old way on
// a hit, at the first empty way on a miss that has one, and past the LRU way
// (dropping it) on a miss in a full set.
func (s *SetAssoc) LookupInsert(key uint64) bool {
	if key == invalidTag {
		panic("cache: key collides with the invalid-tag sentinel")
	}
	set := s.set(key)
	prev := key
	for i, t := range set {
		set[i] = prev
		if t == key {
			return true
		}
		if t == invalidTag {
			return false
		}
		prev = t
	}
	return false
}

// Insert installs key, evicting the LRU way of its set if needed. Inserting a
// present key makes it the most recently used one.
func (s *SetAssoc) Insert(key uint64) { s.LookupInsert(key) }

// Flush invalidates every entry.
func (s *SetAssoc) Flush() {
	for i := range s.tags {
		s.tags[i] = invalidTag
	}
}

// FlushMask invalidates every entry whose tag matches match under mask
// (tag&mask == match), returning how many entries were invalidated. It is the
// selective-invalidate primitive behind ASID shootdowns: callers that pack an
// address-space identifier into the high tag bits can evict one address
// space's entries without disturbing the rest. Each set is compacted in
// order, so the survivors keep their recency order and the freed ways join
// the empty suffix. Empty ways never match — the invalid-tag sentinel is all
// ones, which a real key can't be.
func (s *SetAssoc) FlushMask(mask, match uint64) uint64 {
	var n uint64
	for base := 0; base < len(s.tags); base += s.nways {
		set := s.tags[base : base+s.nways]
		kept, valid := 0, 0
		for ; valid < len(set) && set[valid] != invalidTag; valid++ {
			if set[valid]&mask != match {
				set[kept] = set[valid]
				kept++
			}
		}
		n += uint64(valid - kept)
		for ; kept < valid; kept++ {
			set[kept] = invalidTag
		}
	}
	return n
}
