package pt

import (
	"fmt"

	"repro/internal/mem"
)

// PopulateRange marks every page in [start, end) present, creating the node
// path. Fully covered leaf nodes are marked full without a bitmap, so dense
// population costs time and memory proportional to the node count, not the
// page count. start and end must be page aligned with start < end.
func (t *Table) PopulateRange(start, end mem.VirtAddr) {
	if start.PageOffset() != 0 || end.PageOffset() != 0 || start >= end {
		panic(fmt.Sprintf("pt: invalid populate range [%#x, %#x)", uint64(start), uint64(end)))
	}
	leafSpan := uint64(1) << SpanShift(t.cfg.LeafLevel)
	pageShift := SpanShift(t.cfg.LeafLevel - 1)
	for va := uint64(start); va < uint64(end); {
		nodeStart := va &^ (leafSpan - 1)
		nodeEnd := nodeStart + leafSpan
		leaf := t.ensureNode(mem.VirtAddr(va), t.cfg.LeafLevel)
		if va == nodeStart && nodeEnd <= uint64(end) {
			// full dominates in Walk/Present, so any earlier partial bitmap is
			// left in place — resetting bits would orphan its arena slot.
			t.nodes[leaf].full = true
			va = nodeEnd
			continue
		}
		stop := nodeEnd
		if uint64(end) < stop {
			stop = uint64(end)
		}
		if !t.nodes[leaf].full {
			bits := t.ensureBits(leaf)
			for p := va; p < stop; p += 1 << pageShift {
				bitSet(bits, indexAt(mem.VirtAddr(p), t.cfg.LeafLevel))
			}
		}
		va = stop
	}
}

// SpreadVPN returns the virtual page number of the i-th resident page when
// resident pages are spread evenly over total pages starting at startVPN.
// This Bresenham-style mapping is shared between population (here) and the
// workload generators, guaranteeing they agree on which pages exist.
func SpreadVPN(startVPN, total, resident, i uint64) uint64 {
	if i >= resident || resident > total {
		panic("pt: SpreadVPN index out of range")
	}
	return startVPN + i*total/resident
}

// PopulateSpread marks resident pages present, spread evenly over the total
// pages beginning at start. It visits each leaf node once and sets presence
// bits in bulk, so the cost is O(resident + nodes).
func (t *Table) PopulateSpread(start mem.VirtAddr, total, resident uint64) {
	if resident == 0 || resident > total {
		panic(fmt.Sprintf("pt: invalid spread %d of %d", resident, total))
	}
	if t.cfg.LeafLevel != 1 {
		panic("pt: PopulateSpread requires 4 KB leaf level")
	}
	if resident == total {
		t.PopulateRange(start, start+mem.VirtAddr(total*mem.PageSize))
		return
	}
	startVPN := start.VPN()
	// Resident page i lives at VPN startVPN + i*total/resident. Iterate leaf
	// nodes; for each, find the i-range landing inside it.
	i := uint64(0)
	for i < resident {
		vpn := startVPN + i*total/resident
		nodeFirst := vpn &^ (mem.NodeSpan - 1)
		leaf := t.ensureNode(mem.FromVPN(vpn), 1)
		full := t.nodes[leaf].full
		var bits *[8]uint64
		if !full {
			// ensureBits may grow the bitmap arena, but nothing below
			// allocates until the next outer iteration, so the pointer stays
			// valid for this node's whole bit run.
			bits = t.ensureBits(leaf)
		}
		nodeLimit := nodeFirst + mem.NodeSpan
		for ; i < resident; i++ {
			v := startVPN + i*total/resident
			if v >= nodeLimit {
				break
			}
			if !full {
				bitSet(bits, int(v&(mem.NodeSpan-1)))
			}
		}
	}
}
