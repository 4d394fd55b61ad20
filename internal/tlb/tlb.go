// Package tlb models translation lookaside buffers: the two-level TLB of the
// paper's Table 5 (64-entry 8-way L1, 1536-entry 6-way L2) with 4 KB and 2 MB
// entries, and the Clustered TLB of §5.4.1 (Pham et al., HPCA'14) that
// coalesces up to 8 translations into one entry.
package tlb

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// PageClass distinguishes base-page from large-page TLB entries.
type PageClass int

// Supported page classes.
const (
	Page4K PageClass = iota
	Page2M
)

// ASIDShift is the tag bit where the address-space identifier starts. A
// 48-bit virtual address has at most a 36-bit 4 KB page number, so the packed
// page-number-and-class field below occupies under 38 bits and the ASID tag
// bits never collide with it. ASIDs must stay below 1<<23 so the packed tag
// cannot reach the all-ones invalid sentinel of the underlying arrays.
const ASIDShift = 40

// key encodes an address-space identifier, a page number and its class into a
// single tag. The class sits in the low bit so 4 KB and 2 MB entries of
// nearby addresses spread across sets; the ASID sits in the high bits so one
// structure can hold several address spaces' translations at once (tagged
// TLBs, as opposed to flush-on-switch). ASID 0 leaves the tag bit-identical
// to the historical untagged encoding.
func key(asid, pageNum uint64, class PageClass) uint64 {
	return asid<<ASIDShift | pageNum<<1 | uint64(class)
}

// NeighborFunc reports the physical frame mapping a virtual page, for the
// coalescing probe a Clustered TLB performs at fill time. ok is false for
// unmapped pages.
type NeighborFunc func(vpn uint64) (pfn uint64, ok bool)

// Unit is a single TLB structure. Entries are tagged by (asid, page, class);
// Insert receives the filled page's frame and a neighbour probe so coalescing
// TLBs can pack adjacent translations. FlushASID invalidates one address
// space's entries (a shootdown) and returns how many it dropped.
type Unit interface {
	Lookup(asid, pageNum uint64, class PageClass) bool
	Insert(asid, pageNum uint64, class PageClass, pfn uint64, neighbors NeighborFunc)
	Flush()
	FlushASID(asid uint64) uint64
}

// TLB is a conventional set-associative TLB.
type TLB struct {
	arr *cache.SetAssoc
}

// New returns a TLB with the given entry count and associativity.
func New(entries, ways int) *TLB {
	return &TLB{arr: cache.NewSetAssoc(entries, ways)}
}

// Lookup implements Unit.
func (t *TLB) Lookup(asid, pageNum uint64, class PageClass) bool {
	return t.arr.Lookup(key(asid, pageNum, class))
}

// Insert implements Unit; a conventional TLB ignores the neighbour probe.
// The combined probe refreshes a resident entry or installs over the LRU way
// in a single set scan.
func (t *TLB) Insert(asid, pageNum uint64, class PageClass, pfn uint64, neighbors NeighborFunc) {
	t.arr.LookupInsert(key(asid, pageNum, class))
}

// Flush implements Unit.
func (t *TLB) Flush() { t.arr.Flush() }

// asidMask selects the ASID bits of a packed tag.
const asidMask = ^uint64(1<<ASIDShift - 1)

// FlushASID implements Unit: it invalidates exactly the entries whose tag
// carries asid, leaving other address spaces' translations resident.
func (t *TLB) FlushASID(asid uint64) uint64 {
	return t.arr.FlushMask(asidMask, asid<<ASIDShift)
}

// TwoLevel is the L1 + L2 (STLB) arrangement of Table 5. An L2 hit refills
// the L1 entry. Entries are tagged with the current address-space identifier
// (SetASID), so several processes' translations can coexist; ASID 0 — the
// default, and the only value single-process runs ever use — produces tags
// identical to the untagged encoding.
type TwoLevel struct {
	L1 Unit
	L2 Unit

	Accesses uint64 // lookups performed
	L1Misses uint64
	L2Misses uint64 // misses in both levels (walk triggers)
	// Flushes counts invalidation events — full flushes and ASID shootdowns
	// alike — so callers can tell mid-window that entries (but not the access
	// counters) were cleared. ShotDown counts the entries FlushASID dropped.
	Flushes  uint64
	ShotDown uint64

	asid uint64 // tag of the currently running address space
}

// NewTwoLevel returns the paper's default TLB system: 64-entry 8-way L1 and
// a 1536-entry 6-way second level. If clusteredL2 is true the second level
// coalesces translations as in §5.4.1.
func NewTwoLevel(clusteredL2 bool) *TwoLevel {
	var l2 Unit
	if clusteredL2 {
		l2 = NewClustered(1536, 6)
	} else {
		l2 = New(1536, 6)
	}
	return &TwoLevel{L1: New(64, 8), L2: l2}
}

// SetASID switches the identifier tagging subsequent lookups and fills — the
// context-switch path of a tagged TLB, which retains the outgoing process's
// entries instead of flushing them. asid must stay below 1<<23 (see
// ASIDShift).
func (t *TwoLevel) SetASID(asid uint64) { t.asid = asid }

// Insert fills both levels after a successful walk.
func (t *TwoLevel) Insert(pageNum uint64, class PageClass, pfn uint64, neighbors NeighborFunc) {
	t.L1.Insert(t.asid, pageNum, class, pfn, neighbors)
	t.L2.Insert(t.asid, pageNum, class, pfn, neighbors)
}

// LookupVA probes both page-size classes for va, counting a single TLB
// access and refilling L1 from L2 on an L2 hit. It returns false when both
// levels miss under both classes (a page walk is required). As in real
// hardware, the page size of a translation is unknown before the lookup, so
// every structure is checked (paper §2.5). This is the only lookup path:
// keeping a separate single-class probe alongside it would double-count
// accesses and misses if the two were ever mixed.
func (t *TwoLevel) LookupVA(va mem.VirtAddr, pfn uint64, neighbors NeighborFunc) bool {
	t.Accesses++
	k4, k2 := PageNumber(va, Page4K), PageNumber(va, Page2M)
	if t.L1.Lookup(t.asid, k4, Page4K) || t.L1.Lookup(t.asid, k2, Page2M) {
		return true
	}
	t.L1Misses++
	if t.L2.Lookup(t.asid, k4, Page4K) {
		t.L1.Insert(t.asid, k4, Page4K, pfn, neighbors)
		return true
	}
	if t.L2.Lookup(t.asid, k2, Page2M) {
		t.L1.Insert(t.asid, k2, Page2M, pfn, nil)
		return true
	}
	t.L2Misses++
	return false
}

// InsertVA fills both levels after a walk that resolved va, under the page
// size the walk discovered.
func (t *TwoLevel) InsertVA(va mem.VirtAddr, huge bool, pfn uint64, neighbors NeighborFunc) {
	if huge {
		t.Insert(PageNumber(va, Page2M), Page2M, pfn, nil)
		return
	}
	t.Insert(PageNumber(va, Page4K), Page4K, pfn, neighbors)
}

// Flush empties both levels — the context-switch path of an untagged TLB.
// The access counters are untouched; Flushes records that entries vanished
// mid-window so callers can account for the refill misses that follow.
func (t *TwoLevel) Flush() {
	t.L1.Flush()
	t.L2.Flush()
	t.Flushes++
}

// FlushASID drops one address space's entries from both levels (a TLB
// shootdown — process exit, ASID recycling) and returns how many entries it
// invalidated, which also accumulates in ShotDown.
func (t *TwoLevel) FlushASID(asid uint64) uint64 {
	n := t.L1.FlushASID(asid) + t.L2.FlushASID(asid)
	t.Flushes++
	t.ShotDown += n
	return n
}

// MissRatio returns the fraction of lookups that missed both levels.
func (t *TwoLevel) MissRatio() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.L2Misses) / float64(t.Accesses)
}

// PageNumber returns the page number of va under class.
func PageNumber(va mem.VirtAddr, class PageClass) uint64 {
	if class == Page2M {
		return uint64(va) >> mem.HugeShift
	}
	return va.VPN()
}
