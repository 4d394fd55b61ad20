package pt

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// This file is the structural-equivalence safety net for the arena-backed
// Table layout: refTable below is a faithful copy of the original
// pointer-and-map implementation (per-node heap objects, map[uint16]*refNode
// children), kept as the executable specification. Every scenario builds both
// layouts through the same operation sequence and identical allocators, then
// asserts that node counts, per-level frame lists, full walk access traces,
// EntryAddr and Present agree everywhere. Any arena bug that changes what a
// simulated walker would observe fails here with the first diverging VA.

type refNode struct {
	level    int8
	full     bool
	frame    mem.Frame
	children map[uint16]*refNode
	present  *[8]uint64
	huge     *[8]uint64
}

type refTable struct {
	cfg       Config
	alloc     Allocator
	root      *refNode
	nodeCount [6]uint64
	frames    [6][]mem.Frame
}

func newRefTable(cfg Config, alloc Allocator) *refTable {
	t := &refTable{cfg: cfg, alloc: alloc}
	t.root = t.newNode(cfg.Levels, 0)
	return t
}

func (t *refTable) newNode(level int, firstVA mem.VirtAddr) *refNode {
	n := &refNode{level: int8(level), frame: t.alloc.AllocPTFrame(level, firstVA)}
	if level > t.cfg.LeafLevel {
		n.children = make(map[uint16]*refNode)
	}
	t.nodeCount[level]++
	t.frames[level] = append(t.frames[level], n.frame)
	return n
}

func (t *refTable) ensureNode(va mem.VirtAddr, level int) *refNode {
	n := t.root
	for l := t.cfg.Levels; l > level; l-- {
		idx := uint16(indexAt(va, l))
		child := n.children[idx]
		if child == nil {
			span := mem.VirtAddr(uint64(va) &^ (uint64(1)<<SpanShift(l-1) - 1))
			child = t.newNode(l-1, span)
			n.children[idx] = child
		}
		n = child
	}
	return n
}

func (t *refTable) EnsurePage(va mem.VirtAddr) {
	leaf := t.ensureNode(va, t.cfg.LeafLevel)
	if leaf.full {
		return
	}
	if leaf.present == nil {
		leaf.present = new([8]uint64)
	}
	bitSet(leaf.present, indexAt(va, t.cfg.LeafLevel))
}

func (t *refTable) EnsureHuge(va mem.VirtAddr) {
	n := t.ensureNode(va, 2)
	if n.huge == nil {
		n.huge = new([8]uint64)
	}
	bitSet(n.huge, indexAt(va, 2))
}

func (t *refTable) PopulateRange(start, end mem.VirtAddr) {
	leafSpan := uint64(1) << SpanShift(t.cfg.LeafLevel)
	pageShift := SpanShift(t.cfg.LeafLevel - 1)
	for va := uint64(start); va < uint64(end); {
		nodeStart := va &^ (leafSpan - 1)
		nodeEnd := nodeStart + leafSpan
		leaf := t.ensureNode(mem.VirtAddr(va), t.cfg.LeafLevel)
		if va == nodeStart && nodeEnd <= uint64(end) {
			leaf.full = true
			leaf.present = nil
			va = nodeEnd
			continue
		}
		if leaf.present == nil && !leaf.full {
			leaf.present = new([8]uint64)
		}
		stop := nodeEnd
		if uint64(end) < stop {
			stop = uint64(end)
		}
		if !leaf.full {
			for p := va; p < stop; p += 1 << pageShift {
				bitSet(leaf.present, indexAt(mem.VirtAddr(p), t.cfg.LeafLevel))
			}
		}
		va = stop
	}
}

func (t *refTable) PopulateSpread(start mem.VirtAddr, total, resident uint64) {
	if resident == total {
		t.PopulateRange(start, start+mem.VirtAddr(total*mem.PageSize))
		return
	}
	startVPN := start.VPN()
	i := uint64(0)
	for i < resident {
		vpn := startVPN + i*total/resident
		nodeFirst := vpn &^ (mem.NodeSpan - 1)
		leaf := t.ensureNode(mem.FromVPN(vpn), 1)
		if leaf.present == nil && !leaf.full {
			leaf.present = new([8]uint64)
		}
		nodeLimit := nodeFirst + mem.NodeSpan
		for ; i < resident; i++ {
			v := startVPN + i*total/resident
			if v >= nodeLimit {
				break
			}
			if !leaf.full {
				bitSet(leaf.present, int(v&(mem.NodeSpan-1)))
			}
		}
	}
}

func (t *refTable) Walk(va mem.VirtAddr) WalkResult {
	var r WalkResult
	n := t.root
	for l := t.cfg.Levels; ; l-- {
		idx := indexAt(va, l)
		r.Entries[r.N] = EntryRef{Level: l, EntryAddr: n.frame.Addr() + mem.PhysAddr(idx*mem.PTEBytes)}
		r.N++
		r.TermLevel = l
		if l == t.cfg.LeafLevel {
			r.Present = n.full || (n.present != nil && bitGet(n.present, idx))
			r.Huge = t.cfg.LeafLevel == 2
			return r
		}
		if l == 2 && n.huge != nil && bitGet(n.huge, idx) {
			r.Present = true
			r.Huge = true
			return r
		}
		child := n.children[uint16(idx)]
		if child == nil {
			return r
		}
		n = child
	}
}

func (t *refTable) EntryAddr(va mem.VirtAddr, level int) (mem.PhysAddr, bool) {
	n := t.root
	for l := t.cfg.Levels; l >= level; l-- {
		idx := indexAt(va, l)
		if l == level {
			return n.frame.Addr() + mem.PhysAddr(idx*mem.PTEBytes), true
		}
		child := n.children[uint16(idx)]
		if child == nil {
			return 0, false
		}
		n = child
	}
	return 0, false
}

// tableOps is the population surface shared by both layouts.
type tableOps interface {
	EnsurePage(mem.VirtAddr)
	EnsureHuge(mem.VirtAddr)
	PopulateRange(start, end mem.VirtAddr)
	PopulateSpread(start mem.VirtAddr, total, resident uint64)
}

// diffScenario populates one table layout and returns the VAs worth probing.
type diffScenario struct {
	name     string
	cfg      Config
	populate func(tableOps) []mem.VirtAddr
}

// probesAround widens a set of interesting VAs with their unmapped
// neighbourhood: adjacent pages, node-span siblings and far-away addresses,
// so fault paths at every level are compared too.
func probesAround(vas []mem.VirtAddr) []mem.VirtAddr {
	var out []mem.VirtAddr
	for _, va := range vas {
		out = append(out, va,
			va+mem.PageSize, va-mem.PageSize,
			va+mem.VirtAddr(uint64(1)<<SpanShift(1)),
			va+mem.VirtAddr(uint64(1)<<SpanShift(2)),
			va+mem.VirtAddr(uint64(1)<<SpanShift(3)),
		)
	}
	return out
}

func TestDifferentialArenaMatchesPointerLayout(t *testing.T) {
	const allocSpan = 1 << 24
	scenarios := []diffScenario{
		{
			name: "dense-range-4level",
			cfg:  Config{Levels: 4, LeafLevel: 1},
			populate: func(tb tableOps) []mem.VirtAddr {
				end := mem.FromVPN(3*mem.NodeSpan + 17)
				tb.PopulateRange(0, end)
				return []mem.VirtAddr{0, mem.FromVPN(mem.NodeSpan), mem.FromVPN(3 * mem.NodeSpan), end, end + mem.PageSize}
			},
		},
		{
			name: "unaligned-range-4level",
			cfg:  Config{Levels: 4, LeafLevel: 1},
			populate: func(tb tableOps) []mem.VirtAddr {
				tb.PopulateRange(mem.FromVPN(100), mem.FromVPN(600))
				return []mem.VirtAddr{mem.FromVPN(99), mem.FromVPN(100), mem.FromVPN(511), mem.FromVPN(512), mem.FromVPN(599), mem.FromVPN(600)}
			},
		},
		{
			name: "sparse-spread-5level",
			cfg:  Config{Levels: 5, LeafLevel: 1},
			populate: func(tb tableOps) []mem.VirtAddr {
				// Start above the 48-bit boundary so PL5 indexing is exercised.
				start := mem.VirtAddr(uint64(3) << SpanShift(4))
				const total, resident = 100_000, 7_777
				tb.PopulateSpread(start, total, resident)
				vas := []mem.VirtAddr{start, 0, mem.FromVPN(5)}
				for i := uint64(0); i < resident; i += 391 {
					vas = append(vas, mem.FromVPN(SpreadVPN(start.VPN(), total, resident, i)))
				}
				return vas
			},
		},
		{
			name: "mixed-huge-and-base-4level",
			cfg:  Config{Levels: 4, LeafLevel: 1},
			populate: func(tb tableOps) []mem.VirtAddr {
				var vas []mem.VirtAddr
				for i := uint64(0); i < 20; i++ {
					huge := mem.VirtAddr(i * 3 * mem.HugeSize)
					base := mem.VirtAddr(i*7*mem.HugeSize + mem.HugeSize/2)
					tb.EnsureHuge(huge)
					tb.EnsurePage(base)
					vas = append(vas, huge, huge+12345, base)
				}
				return vas
			},
		},
		{
			name: "huge-leaf-table",
			cfg:  Config{Levels: 4, LeafLevel: 2},
			populate: func(tb tableOps) []mem.VirtAddr {
				end := mem.VirtAddr(uint64(10) << SpanShift(1))
				tb.PopulateRange(0, end)
				tb.PopulateRange(mem.VirtAddr(uint64(600)<<SpanShift(1)), mem.VirtAddr(uint64(601)<<SpanShift(1)))
				return []mem.VirtAddr{0, mem.VirtAddr(uint64(3) << SpanShift(1)), end, mem.VirtAddr(uint64(600) << SpanShift(1))}
			},
		},
		{
			name: "random-ops-4level",
			cfg:  Config{Levels: 4, LeafLevel: 1},
			populate: func(tb tableOps) []mem.VirtAddr {
				// The op stream must be identical for both layouts, so each
				// call re-derives it from the same fixed seed.
				s := rng.New(0xd1ff)
				var vas []mem.VirtAddr
				for i := 0; i < 2_000; i++ {
					va := mem.FromVPN(s.Uint64n(1 << 22))
					if s.Bool(0.25) {
						tb.EnsureHuge(va)
					} else {
						tb.EnsurePage(va)
					}
					vas = append(vas, va)
				}
				return vas
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			arena, err := New(sc.cfg, NewScatterAlloc(0, allocSpan, 1), true)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefTable(sc.cfg, NewScatterAlloc(0, allocSpan, 1))

			vas := sc.populate(arena)
			refVAs := sc.populate(ref)
			if !reflect.DeepEqual(vas, refVAs) {
				t.Fatal("scenario produced different op streams for the two layouts")
			}

			for l := 0; l <= sc.cfg.Levels; l++ {
				if arena.NodeCount(l) != ref.nodeCount[l] {
					t.Errorf("NodeCount(%d): arena %d, ref %d", l, arena.NodeCount(l), ref.nodeCount[l])
				}
				if !reflect.DeepEqual(arena.FramesAt(l), ref.frames[l]) {
					t.Errorf("FramesAt(%d): arena and ref frame lists differ", l)
				}
			}

			// One result takes every in-place walk, as a walker keeps one:
			// the probes mix walk lengths, so entries past N are stale.
			var reused WalkResult
			for _, va := range probesAround(vas) {
				got, want := arena.Walk(va), ref.Walk(va)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Walk(%#x): arena %+v, ref %+v", uint64(va), got, want)
				}
				arena.WalkInto(va, &reused)
				in := reused
				clear(in.Entries[in.N:])
				if !reflect.DeepEqual(in, want) {
					t.Fatalf("WalkInto(%#x) over an earlier walk: arena %+v, ref %+v", uint64(va), reused, want)
				}
				if got.Present != arena.Present(va) {
					t.Fatalf("Present(%#x) disagrees with Walk", uint64(va))
				}
				for l := 1; l <= sc.cfg.Levels; l++ {
					ga, gok := arena.EntryAddr(va, l)
					ra, rok := ref.EntryAddr(va, l)
					if ga != ra || gok != rok {
						t.Fatalf("EntryAddr(%#x, %d): arena %#x,%v ref %#x,%v", uint64(va), l, uint64(ga), gok, uint64(ra), rok)
					}
				}
			}
		})
	}
}
