package cache

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// invalidTag marks an empty way of a SetAssoc: the all-ones key, which
// Insert rejects.
const invalidTag = ^uint64(0)

// ageLRU is a faithful copy of the SetAssoc that kept an LRU age per way and
// a global clock, and picked victims by a min-age scan. The recency-ordered
// SetAssoc must be observationally identical to it on every operation.
type ageLRU struct {
	nways   int
	setMask uint64
	ways    []ageWay
	clock   uint64
}

type ageWay struct {
	tag uint64
	age uint64
}

func newAgeLRU(entries, ways int) *ageLRU {
	s := &ageLRU{
		nways:   ways,
		setMask: uint64(entries/ways - 1),
		ways:    make([]ageWay, entries),
	}
	s.Flush()
	return s
}

func (s *ageLRU) set(key uint64) []ageWay {
	base := int(key&s.setMask) * s.nways
	return s.ways[base : base+s.nways]
}

func (s *ageLRU) Lookup(key uint64) bool {
	if key == invalidTag {
		return false
	}
	set := s.set(key)
	for i := range set {
		if set[i].tag == key {
			s.clock++
			set[i].age = s.clock
			return true
		}
	}
	return false
}

func (s *ageLRU) Contains(key uint64) bool {
	if key == invalidTag {
		return false
	}
	set := s.set(key)
	for i := range set {
		if set[i].tag == key {
			return true
		}
	}
	return false
}

func (s *ageLRU) LookupInsert(key uint64) bool {
	if key == invalidTag {
		panic("cache: key collides with the invalid-tag sentinel")
	}
	set := s.set(key)
	s.clock++
	victim := -1
	for i := range set {
		if set[i].tag == key {
			set[i].age = s.clock
			return true
		}
		if set[i].tag == invalidTag {
			if victim < 0 || set[victim].tag != invalidTag {
				victim = i
			}
			continue
		}
		if victim < 0 || (set[victim].tag != invalidTag && set[i].age < set[victim].age) {
			victim = i
		}
	}
	set[victim] = ageWay{tag: key, age: s.clock}
	return false
}

func (s *ageLRU) Insert(key uint64) { s.LookupInsert(key) }

func (s *ageLRU) Flush() {
	for i := range s.ways {
		s.ways[i].tag = invalidTag
	}
}

func (s *ageLRU) FlushMask(mask, match uint64) uint64 {
	var n uint64
	for i := range s.ways {
		if s.ways[i].tag != invalidTag && s.ways[i].tag&mask == match {
			s.ways[i].tag = invalidTag
			n++
		}
	}
	return n
}

// asidShift is where tlb and pwc pack the address-space identifier into a key.
const asidShift = 40

// diffKeys is the key space of one differential stream: a few sets spread
// over the array, up to twice the associativity plus one distinct keys per set
// and ASID, under four ASIDs. Concentrating on a few sets makes every
// geometry, the full-size LLC included, fill, evict and refill its sets.
type diffKeys struct {
	sets, depth, nsets, asids uint64
}

func newDiffKeys(entries, ways int) diffKeys {
	sets := uint64(entries / ways)
	return diffKeys{sets: sets, depth: 2*uint64(ways) + 1, nsets: min(sets, 8), asids: 4}
}

func (k diffKeys) size() uint64 { return k.asids * k.depth * k.nsets }

// key returns the i-th key of the space, for i < size().
func (k diffKeys) key(i uint64) uint64 {
	set := (i % k.nsets) * (k.sets / k.nsets)
	i /= k.nsets
	j := i % k.depth
	asid := i / k.depth
	return asid<<asidShift | j*k.sets | set
}

// lruOps is what the differential test drives: a SetAssoc or an llcArray.
type lruOps interface {
	Lookup(key uint64) bool
	Contains(key uint64) bool
	LookupInsert(key uint64) bool
	Insert(key uint64)
	Flush()
	FlushMask(mask, match uint64) uint64
}

func TestSetAssocMatchesAgeLRU(t *testing.T) {
	// llc32 is the Hierarchy's LLC array: 32-bit tags above the set index.
	// Its top ASID's keys lie just below 2^42, the top of the simulator's
	// machine line space.
	geometries := []struct {
		name          string
		entries, ways int
		tags32        bool
	}{
		{"l1", 512, 8, false},
		{"l2", 4096, 8, false},
		{"llc", 327680, 20, false},
		{"llc32", 327680, 20, true},
		{"pwc_fa", 32, 32, false},
		{"direct", 2, 1, false},
		{"tlb", 64, 4, false},
	}
	const ops = 20_000
	for _, g := range geometries {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				var cur lruOps = NewSetAssoc(g.entries, g.ways)
				if g.tags32 {
					cur = newLLCArray(g.entries, g.ways)
				}
				ref := newAgeLRU(g.entries, g.ways)
				keys := newDiffKeys(g.entries, g.ways)
				r := rng.New(seed)
				sweep := func(op int) {
					t.Helper()
					for i := uint64(0); i < keys.size(); i++ {
						k := keys.key(i)
						if cur.Contains(k) != ref.Contains(k) {
							t.Fatalf("after op %d: Contains(%#x) = %v, age LRU says %v", op, k, cur.Contains(k), ref.Contains(k))
						}
					}
				}
				for op := 0; op < ops; op++ {
					k := keys.key(r.Uint64n(keys.size()))
					switch c := r.Intn(1000); {
					case c < 400:
						if got, want := cur.LookupInsert(k), ref.LookupInsert(k); got != want {
							t.Fatalf("op %d: LookupInsert(%#x) = %v, age LRU says %v", op, k, got, want)
						}
					case c < 600:
						if got, want := cur.Lookup(k), ref.Lookup(k); got != want {
							t.Fatalf("op %d: Lookup(%#x) = %v, age LRU says %v", op, k, got, want)
						}
					case c < 750:
						if got, want := cur.Contains(k), ref.Contains(k); got != want {
							t.Fatalf("op %d: Contains(%#x) = %v, age LRU says %v", op, k, got, want)
						}
					case c < 970:
						cur.Insert(k)
						ref.Insert(k)
					case c < 985:
						// An ASID shootdown, as tlb and pwc issue one.
						asid := r.Uint64n(keys.asids)
						mask, match := ^uint64(1<<asidShift-1), asid<<asidShift
						if got, want := cur.FlushMask(mask, match), ref.FlushMask(mask, match); got != want {
							t.Fatalf("op %d: FlushMask(asid %d) = %d, age LRU says %d", op, asid, got, want)
						}
					case c < 998:
						// A single-key or low-bit invalidation, which frees
						// ways in the middle of a set's recency order.
						mask, match := ^uint64(0), k
						if r.Bool(0.5) {
							bit := uint64(1) << r.Uint64n(asidShift)
							mask, match = bit, bit&k
						}
						if got, want := cur.FlushMask(mask, match), ref.FlushMask(mask, match); got != want {
							t.Fatalf("op %d: FlushMask(%#x, %#x) = %d, age LRU says %d", op, mask, match, got, want)
						}
					default:
						cur.Flush()
						ref.Flush()
					}
					if op%1000 == 999 {
						sweep(op)
					}
				}
				sweep(ops)
			})
		}
	}
}

func TestLLCArrayTagWidth(t *testing.T) {
	// At the default LLC geometry (16384 sets) a key's tag is key>>14. The
	// last key whose tag fits below the 32-bit sentinel installs and hits;
	// the first whose tag reaches it panics on install and never hits.
	llc := DefaultConfig().L3
	s := newLLCArray(llc.SizeBytes/64, llc.Ways)
	const limit = uint64(1<<32-1) << 14
	s.Insert(limit - 1)
	if !s.Contains(limit - 1) {
		t.Fatal("largest fitting key not resident after insert")
	}
	for _, k := range []uint64{limit, limit | 5, 1 << 46, ^uint64(0)} {
		if s.Lookup(k) || s.Contains(k) {
			t.Errorf("key %#x with an oversized tag hit", k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("inserting key %#x with an oversized tag did not panic", k)
				}
			}()
			s.Insert(k)
		}()
	}
}
