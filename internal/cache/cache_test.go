package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/rng"
)

func TestSetAssocBasic(t *testing.T) {
	s := NewSetAssoc(16, 4)
	if s.Lookup(42) {
		t.Fatal("hit in empty array")
	}
	s.Insert(42)
	if !s.Lookup(42) {
		t.Fatal("miss after insert")
	}
	if !s.Contains(42) {
		t.Fatal("Contains false after insert")
	}
	s.Flush()
	if s.Lookup(42) {
		t.Fatal("hit after flush")
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// One set (fully associative, 4 ways): the least recently used entry
	// must be the victim.
	s := NewSetAssoc(4, 4)
	for k := uint64(0); k < 4; k++ {
		s.Insert(k * 4) // same set when sets=1
	}
	s.Lookup(0) // make key 0 most recently used
	s.Insert(100)
	if !s.Contains(0) {
		t.Fatal("most recently used entry evicted")
	}
	if s.Contains(4) {
		t.Fatal("LRU entry 4 survived eviction")
	}
}

func TestSetAssocSetConflicts(t *testing.T) {
	// 2 sets × 1 way: keys with the same low bit conflict.
	s := NewSetAssoc(2, 1)
	s.Insert(0)
	s.Insert(2) // same set as 0
	if s.Contains(0) {
		t.Fatal("direct-mapped conflict did not evict")
	}
	s.Insert(1) // other set
	if !s.Contains(2) || !s.Contains(1) {
		t.Fatal("non-conflicting keys evicted each other")
	}
}

func TestSetAssocInsertRefreshesAge(t *testing.T) {
	s := NewSetAssoc(2, 2)
	s.Insert(0)
	s.Insert(2)
	s.Insert(0) // refresh; must not duplicate
	s.Insert(4) // evicts 2, not 0
	if !s.Contains(0) || s.Contains(2) {
		t.Fatal("re-insert did not refresh LRU age")
	}
}

func TestSetAssocLookupInsertEquivalence(t *testing.T) {
	// LookupInsert must leave the array in exactly the state that the
	// two-scan Lookup-then-Insert sequence would, for any key stream.
	combined, split := NewSetAssoc(64, 4), NewSetAssoc(64, 4)
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 10_000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		key := s >> 40 // small key space so sets fill and evict
		hit := combined.LookupInsert(key)
		if split.Lookup(key) != hit {
			t.Fatalf("op %d: LookupInsert hit=%v, Lookup disagrees", i, hit)
		}
		if !hit {
			split.Insert(key)
		}
		// The two arrays must stay observationally identical: probe a window
		// of keys around the current one without disturbing LRU state.
		for d := uint64(0); d < 8; d++ {
			if combined.Contains(key+d) != split.Contains(key+d) {
				t.Fatalf("op %d: arrays diverged at key %d", i, key+d)
			}
		}
	}
}

func TestSetAssocSentinelKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inserting the invalid-tag sentinel did not panic")
		}
	}()
	NewSetAssoc(16, 4).Insert(^uint64(0))
}

func TestSetAssocSentinelKeyNeverHits(t *testing.T) {
	// The sentinel marks empty ways; probing it must miss, not match them.
	s := NewSetAssoc(16, 4)
	if s.Lookup(^uint64(0)) || s.Contains(^uint64(0)) {
		t.Fatal("sentinel key hit an empty way")
	}
}

func TestSetAssocGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {8, 3}, {12, 2}, {-4, 2}} {
		g := g
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", g)
				}
			}()
			NewSetAssoc(g[0], g[1])
		}()
	}
}

func TestSetAssocPropertyInsertThenLookup(t *testing.T) {
	s := NewSetAssoc(1024, 8)
	f := func(key uint64) bool {
		s.Insert(key)
		return s.Lookup(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetAssocPropertyCapacityBound(t *testing.T) {
	// The number of resident keys can never exceed capacity.
	s := NewSetAssoc(64, 4)
	inserted := map[uint64]bool{}
	f := func(key uint64) bool {
		s.Insert(key)
		inserted[key] = true
		resident := 0
		for k := range inserted {
			if s.Contains(k) {
				resident++
			}
		}
		return resident <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyAccessLatencies(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	addr := mem.PhysAddr(1 << 20)
	served, lat := h.Access(addr)
	if served != ServedMem || lat != 191 {
		t.Fatalf("cold access: %v, %d", served, lat)
	}
	served, lat = h.Access(addr)
	if served != ServedL1 || lat != 4 {
		t.Fatalf("hot access: %v, %d", served, lat)
	}
	if h.ServedCount(ServedMem) != 1 || h.ServedCount(ServedL1) != 1 {
		t.Fatal("served counters wrong")
	}
}

func TestHierarchyFillsUpperLevels(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	addr := mem.PhysAddr(64)
	h.Access(addr)
	if h.Where(addr) != ServedL1 {
		t.Fatalf("line not in L1 after fill: %v", h.Where(addr))
	}
	// Thrash L1 only (32 KB = 512 lines, 8-way, 64 sets): fill lines mapping
	// to the same set until the line falls out of L1 but stays in L2.
	for i := 1; i <= 8; i++ {
		h.Access(mem.PhysAddr(64 + i*64*64)) // same L1 set (64 sets)
	}
	where := h.Where(addr)
	if where == ServedL1 {
		t.Fatal("line survived L1 conflict thrash")
	}
	if where == ServedMem {
		t.Fatal("line fell out of the whole hierarchy")
	}
	served, _ := h.Access(addr)
	if served != where {
		t.Fatalf("Access served at %v, probe said %v", served, where)
	}
}

func TestHierarchyNonInclusive(t *testing.T) {
	// LLC evictions do not back-invalidate L1/L2: a line kept hot in L1 stays
	// there after its LLC set has evicted it. Victima's residency probe
	// (Where(addr) > ServedL2) relies on this.
	h := NewHierarchy(DefaultConfig())
	llcSets := h.llc.Entries() / h.llc.Ways()
	x := mem.PhysAddr(64)
	h.Access(x)
	for i := 1; i <= h.llc.Ways(); i++ {
		// Same LLC set as x, and so the same L1 and L2 set too.
		h.Access(x + mem.PhysAddr(i*llcSets*mem.LineBytes))
		if served, _ := h.Access(x); served != ServedL1 {
			t.Fatalf("after conflict %d: x served at %v, want L1", i, served)
		}
	}
	if h.llc.Contains(x.Line()) {
		t.Fatal("x survived its LLC set filling with conflicting lines")
	}
	if got := h.Where(x); got != ServedL1 {
		t.Fatalf("Where(x) = %v after LLC eviction, want L1 (no back-invalidation)", got)
	}
}

func TestAccessAllMatchesAccess(t *testing.T) {
	// AccessAll must be exactly Access on each address in order. Two
	// hierarchies see the same traffic: co-runner bursts, per address on one
	// and as random-sized AccessAll bursts on the other, interleaved with
	// walk-line Access and Where calls on both. Co-runner lines come from a
	// 64 MB span at 2^42 bytes, so some hit the LLC; walk lines from a 1 MB
	// region that L2 cannot hold, so they hit every level.
	one, burst := NewHierarchy(DefaultConfig()), NewHierarchy(DefaultConfig())
	r := rng.New(5)
	line := func(base mem.PhysAddr, span uint64) mem.PhysAddr {
		return base + mem.PhysAddr(r.Uint64n(span/mem.LineBytes)*mem.LineBytes)
	}
	touched := map[mem.PhysAddr]bool{}
	buf := make([]mem.PhysAddr, 64)
	for op := 0; op < 20_000; op++ {
		switch c := r.Intn(10); {
		case c < 6:
			walk := line(1<<30, 1<<20)
			s1, l1 := one.Access(walk)
			s2, l2 := burst.Access(walk)
			if s1 != s2 || l1 != l2 {
				t.Fatalf("op %d: walk line served at %v/%d and %v/%d", op, s1, l1, s2, l2)
			}
			touched[walk] = true
		case c < 7:
			walk := line(1<<30, 1<<20)
			if w1, w2 := one.Where(walk), burst.Where(walk); w1 != w2 {
				t.Fatalf("op %d: Where = %v and %v", op, w1, w2)
			}
		default:
			b := buf[:r.Intn(len(buf)+1)]
			for i := range b {
				b[i] = line(1<<42, 64<<20)
				one.Access(b[i])
				touched[b[i]] = true
			}
			burst.AccessAll(b)
		}
	}
	for s := ServedL1; s <= ServedMem; s++ {
		if c1, c2 := one.ServedCount(s), burst.ServedCount(s); c1 != c2 {
			t.Errorf("ServedCount(%v) = %d per address, %d in bursts", s, c1, c2)
		}
	}
	for a := range touched {
		if w1, w2 := one.Where(a), burst.Where(a); w1 != w2 {
			t.Fatalf("Where(%#x) = %v per address, %v in bursts", uint64(a), w1, w2)
		}
	}
}

func TestHierarchyL1DistinctSets(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	// Fill many distinct sets; all must be L1 hits on re-access.
	for i := 0; i < 64; i++ {
		h.Access(mem.PhysAddr(i * 64))
	}
	for i := 0; i < 64; i++ {
		if served, _ := h.Access(mem.PhysAddr(i * 64)); served != ServedL1 {
			t.Fatalf("line %d not L1 resident", i)
		}
	}
}

func TestHierarchyLatencyAccessor(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	if h.Latency(ServedL1) != 4 || h.Latency(ServedL2) != 12 || h.Latency(ServedL3) != 40 || h.Latency(ServedMem) != 191 {
		t.Fatal("latency table wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Latency(ServedPWC) did not panic")
		}
	}()
	h.Latency(ServedPWC)
}

func TestServedByString(t *testing.T) {
	want := map[ServedBy]string{ServedPWC: "PWC", ServedL1: "L1", ServedL2: "L2", ServedL3: "LLC", ServedMem: "Mem"}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestMSHRFile(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.TryAcquire(0, 100) || !m.TryAcquire(0, 50) {
		t.Fatal("fresh MSHRs not acquirable")
	}
	if m.TryAcquire(0, 10) {
		t.Fatal("third acquisition succeeded with 2 MSHRs")
	}
	if m.Dropped() != 1 {
		t.Fatalf("Dropped = %d", m.Dropped())
	}
	if m.InUse(0) != 2 || m.InUse(60) != 1 || m.InUse(100) != 0 {
		t.Fatal("InUse accounting wrong")
	}
	if !m.TryAcquire(50, 200) {
		t.Fatal("expired MSHR not reusable")
	}
}

func TestMSHRPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHRFile(0) did not panic")
		}
	}()
	NewMSHRFile(0)
}

func TestFlushMask(t *testing.T) {
	s := NewSetAssoc(8, 4)
	const hi = uint64(1) << 40
	s.Insert(0)      // set 0
	s.Insert(hi | 8) // set 0, tagged
	s.Insert(hi | 1) // set 1, tagged
	if n := s.FlushMask(^uint64(1<<40-1), hi); n != 2 {
		t.Fatalf("FlushMask invalidated %d entries, want 2", n)
	}
	if !s.Contains(0) {
		t.Fatal("untagged entry lost to the masked flush")
	}
	if s.Contains(hi|8) || s.Contains(hi|1) {
		t.Fatal("tagged entry survived the masked flush")
	}
	// Empty ways never match, even though the sentinel has all mask bits set.
	if n := s.FlushMask(^uint64(0), invalidTag); n != 0 {
		t.Fatalf("masked flush matched %d empty ways", n)
	}
}

func TestLookupInsertAfterMidSetHole(t *testing.T) {
	// FlushMask can invalidate ways mid-set. It must close the hole, since
	// probes stop at the first empty way: a resident key that was beyond the
	// hole is a hit, not a duplicate install (which would halve the set's
	// effective associativity).
	s := NewSetAssoc(4, 4) // one set
	const hi = uint64(1) << 40
	s.Insert(8)      // way 0, then pushed to way 1: untagged
	s.Insert(hi | 4) // way 0: tagged, so flushing it leaves the hole at way 0
	if n := s.FlushMask(^uint64(1<<40-1), hi); n != 1 {
		t.Fatalf("FlushMask invalidated %d, want 1", n)
	}
	if !s.LookupInsert(8) {
		t.Fatal("resident key beyond the hole reported as a miss")
	}
	// Still exactly one copy: invalidate it and count.
	if n := s.FlushMask(^uint64(0)>>1, 8); n != 1 {
		t.Fatalf("key resident %d times after hole probe, want 1", n)
	}
}
