// Package pt implements the x86-64 radix-tree page table that the paper's
// page walks traverse: 4-level (48-bit VA) and 5-level (57-bit VA) trees with
// 512-entry nodes, 8-byte PTEs, lazy and bulk population, 2 MB large pages,
// and pluggable placement of page-table node frames in physical memory.
//
// Placement is the heart of the reproduction: the baseline system scatters
// page-table pages across physical memory (as the Linux buddy allocator
// does), while ASAP's modified OS lays the PL1/PL2 node pages of each
// registered VMA out contiguously and sorted by virtual address, enabling
// base-plus-offset prefetch (paper §3.3). Both policies implement Allocator.
//
// The tree is stored arena-style: all nodes live in one []node slice and
// refer to each other through int32 indices into dense 512-slot child tables,
// so a walk step is two slice loads (child table, node) instead of a map
// probe and a pointer chase, and building a table allocates a handful of
// growing slices instead of one heap object per node.
package pt

import (
	"fmt"

	"repro/internal/mem"
)

// Config selects the tree geometry.
type Config struct {
	// Levels is the depth of the radix tree: 4 (today's x86-64) or 5 (the
	// 57-bit extension of paper §2.6/§3.5).
	Levels int
	// LeafLevel is the level whose entries map pages: 1 for 4 KB pages, 2
	// when the whole table uses 2 MB pages (e.g. a hypervisor EPT, Fig 12).
	LeafLevel int
}

// Validate reports whether the configuration is supported.
func (c Config) Validate() error {
	if c.Levels != 4 && c.Levels != 5 {
		return fmt.Errorf("pt: unsupported depth %d", c.Levels)
	}
	if c.LeafLevel != 1 && c.LeafLevel != 2 {
		return fmt.Errorf("pt: unsupported leaf level %d", c.LeafLevel)
	}
	return nil
}

// SpanShift returns log2 of the VA bytes covered by a single node at level.
// A PL1 node covers 2 MB (shift 21), a PL2 node 1 GB (shift 30), and so on.
func SpanShift(level int) uint {
	return uint(mem.PageShift + mem.NodeShift*level)
}

// indexAt returns the 9-bit radix index of va at the given level.
func indexAt(va mem.VirtAddr, level int) int {
	return int(uint64(va) >> (mem.PageShift + mem.NodeShift*uint(level-1)) & (mem.NodeSpan - 1))
}

// Allocator supplies physical frames for new page-table nodes. firstVA is the
// start of the VA span the node covers, which sorted-region allocators use to
// compute the node's slot.
type Allocator interface {
	AllocPTFrame(level int, firstVA mem.VirtAddr) mem.Frame
}

// node is one page of the radix tree, held in the table's node arena.
type node struct {
	level int8
	full  bool      // leaf node: all 512 entries present
	frame mem.Frame // physical page backing this node
	// kids is the start of this node's 512-slot child table in Table.kids
	// (interior nodes), or -1 for leaf nodes. A slot holds the arena index of
	// the child, with 0 meaning absent (the root is index 0 and is never a
	// child).
	kids int32
	// bits indexes Table.bitmaps, or -1 when unset. For a leaf node it is the
	// partial presence bitmap; for a level-2 interior node it marks entries
	// that map 2 MB pages directly. A node is never both, so one field
	// suffices.
	bits int32
}

func bitGet(b *[8]uint64, i int) bool { return b[i>>6]>>(uint(i)&63)&1 == 1 }
func bitSet(b *[8]uint64, i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

// Table is a radix-tree page table.
type Table struct {
	cfg       Config
	alloc     Allocator
	nodes     []node      // arena; index 0 is the root
	kids      []int32     // dense child tables, mem.NodeSpan slots per interior node
	bitmaps   [][8]uint64 // presence / huge bitmaps
	nodeCount [6]uint64
	frames    [6][]mem.Frame
	keepStats bool
}

// New returns an empty table. If keepStats is true the table records the
// frame of every node per level for Table 2 statistics (costs memory
// proportional to the node count).
func New(cfg Config, alloc Allocator, keepStats bool) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{cfg: cfg, alloc: alloc, keepStats: keepStats}
	t.newNode(cfg.Levels, 0)
	return t, nil
}

// Config returns the tree geometry.
func (t *Table) Config() Config { return t.cfg }

// emptyKids is the zeroed child table appended for each new interior node.
var emptyKids [mem.NodeSpan]int32

// newNode allocates a node page at level covering the span beginning at
// firstVA, returning its arena index.
func (t *Table) newNode(level int, firstVA mem.VirtAddr) int32 {
	n := node{level: int8(level), frame: t.alloc.AllocPTFrame(level, firstVA), kids: -1, bits: -1}
	if level > t.cfg.LeafLevel {
		n.kids = int32(len(t.kids))
		t.kids = append(t.kids, emptyKids[:]...)
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	t.nodeCount[level]++
	if t.keepStats {
		t.frames[level] = append(t.frames[level], n.frame)
	}
	return idx
}

// ensureBits returns the bitmap of the node at arena index ni, allocating it
// on first use. The pointer is only valid until the next bitmap allocation.
func (t *Table) ensureBits(ni int32) *[8]uint64 {
	if t.nodes[ni].bits < 0 {
		t.nodes[ni].bits = int32(len(t.bitmaps))
		t.bitmaps = append(t.bitmaps, [8]uint64{})
	}
	return &t.bitmaps[t.nodes[ni].bits]
}

// ensureNode returns the arena index of the node at the given level on va's
// path, creating missing interior nodes.
func (t *Table) ensureNode(va mem.VirtAddr, level int) int32 {
	ni := int32(0)
	for l := t.cfg.Levels; l > level; l-- {
		if t.nodes[ni].kids < 0 {
			// A leaf above the requested level: descending would index some
			// other node's child table. The pointer layout failed fast here
			// (nil-map write); keep that property.
			panic("pt: ensureNode descended into a leaf node")
		}
		slot := int(t.nodes[ni].kids) + indexAt(va, l)
		child := t.kids[slot]
		if child == 0 {
			span := mem.VirtAddr(uint64(va) &^ (uint64(1)<<SpanShift(l-1) - 1))
			child = t.newNode(l-1, span)
			t.kids[slot] = child
		}
		ni = child
	}
	return ni
}

// EnsurePage marks the page containing va present, creating the node path.
func (t *Table) EnsurePage(va mem.VirtAddr) {
	leaf := t.ensureNode(va, t.cfg.LeafLevel)
	if t.nodes[leaf].full {
		return
	}
	bitSet(t.ensureBits(leaf), indexAt(va, t.cfg.LeafLevel))
}

// EnsureHuge maps the 2 MB page containing va with a level-2 large-page
// entry. Valid only on 4 KB-leaf tables (mixing sizes as §3.5 describes).
func (t *Table) EnsureHuge(va mem.VirtAddr) {
	if t.cfg.LeafLevel != 1 {
		panic("pt: EnsureHuge on a table whose leaf level is already 2")
	}
	ni := t.ensureNode(va, 2)
	bitSet(t.ensureBits(ni), indexAt(va, 2))
}

// Present reports whether va is mapped (by a base page or a large page).
func (t *Table) Present(va mem.VirtAddr) bool {
	r := t.Walk(va)
	return r.Present
}

// EntryRef identifies one page-walk access: the PT level and the physical
// address of the 8-byte entry read at that level.
type EntryRef struct {
	Level     int
	EntryAddr mem.PhysAddr
}

// WalkResult describes the accesses a hardware walk of va performs, from the
// root level down to the terminal entry.
type WalkResult struct {
	Entries   [5]EntryRef // Entries[:N], root level first
	N         int
	Present   bool // terminal entry maps a page
	Huge      bool // terminal entry is a 2 MB large-page mapping
	TermLevel int  // level of the terminal entry
}

// Walk returns the walk of va (WalkInto) by value. The walkers call
// WalkInto on a result they own and reuse, which saves zeroing and copying
// the result on every walk; Walk stays for callers that want a copy: tests,
// Present, and the repository benchmark (bench/, its own module), which
// times it.
func (t *Table) Walk(va mem.VirtAddr) WalkResult {
	var r WalkResult
	t.WalkInto(va, &r)
	return r
}

// WalkInto simulates the radix traversal for va and writes it into r. Every
// entry the hardware walker would read is reported, including the final
// not-present entry on a fault (paper §3.7.1: walks that fault still perform
// their accesses). Entries past r.N keep whatever r held before.
func (t *Table) WalkInto(va mem.VirtAddr, r *WalkResult) {
	r.N, r.Present, r.Huge = 0, false, false
	nodes := t.nodes
	kids := t.kids
	n := &nodes[0]
	for l := t.cfg.Levels; ; l-- {
		idx := indexAt(va, l)
		r.Entries[r.N] = EntryRef{Level: l, EntryAddr: n.frame.Addr() + mem.PhysAddr(idx*mem.PTEBytes)}
		r.N++
		r.TermLevel = l
		if l == t.cfg.LeafLevel {
			r.Present = n.full || (n.bits >= 0 && bitGet(&t.bitmaps[n.bits], idx))
			r.Huge = t.cfg.LeafLevel == 2
			return
		}
		if l == 2 && n.bits >= 0 && bitGet(&t.bitmaps[n.bits], idx) {
			r.Present = true
			r.Huge = true
			return
		}
		child := kids[int(n.kids)+idx]
		if child == 0 {
			return // fault: entry read, found not present
		}
		n = &nodes[child]
	}
}

// EntryAddr returns the physical address of the entry at the given level on
// va's existing path, or false if the path does not reach that level.
func (t *Table) EntryAddr(va mem.VirtAddr, level int) (mem.PhysAddr, bool) {
	n := &t.nodes[0]
	for l := t.cfg.Levels; l >= level; l-- {
		idx := indexAt(va, l)
		if l == level {
			return n.frame.Addr() + mem.PhysAddr(idx*mem.PTEBytes), true
		}
		if n.kids < 0 {
			return 0, false // leaf reached above the requested level
		}
		child := t.kids[int(n.kids)+idx]
		if child == 0 {
			return 0, false
		}
		n = &t.nodes[child]
	}
	return 0, false
}

// NodeCount returns the number of node pages at level.
func (t *Table) NodeCount(level int) uint64 { return t.nodeCount[level] }

// TotalNodes returns the total page count of the table — Table 2's "PT page
// count" statistic.
func (t *Table) TotalNodes() uint64 {
	var total uint64
	for _, c := range t.nodeCount {
		total += c
	}
	return total
}

// FramesAt returns the recorded node frames at level (empty unless the table
// was created with keepStats).
func (t *Table) FramesAt(level int) []mem.Frame { return t.frames[level] }

// AllFrames returns the recorded frames of every node in the table.
func (t *Table) AllFrames() []mem.Frame {
	var all []mem.Frame
	for _, fs := range t.frames {
		all = append(all, fs...)
	}
	return all
}
