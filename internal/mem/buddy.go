package mem

import (
	"errors"
	"fmt"
	"sort"
)

// MaxOrder is the largest buddy block order (2^18 pages = 1 GiB), matching
// the spirit of the Linux buddy allocator's MAX_ORDER limit scaled to the
// large-memory machines the paper targets.
const MaxOrder = 18

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// ErrNotFree is returned by AllocAt when the requested block is not entirely
// free.
var ErrNotFree = errors.New("mem: requested block is not free")

// Buddy is a binary buddy allocator over a physical frame range [0, Frames).
// Free blocks are kept on per-order LIFO free lists (like Linux), so a
// long-running allocation/free history scatters subsequent allocations —
// exactly the behaviour that destroys page-table contiguity in the baseline
// system (paper §3.3).
type Buddy struct {
	frames uint64
	free   [MaxOrder + 1]map[Frame]struct{} // membership, for coalescing
	stack  [MaxOrder + 1][]Frame            // LIFO allocation order
	inUse  uint64
}

// NewBuddy returns an allocator over frames physical frames. frames is
// rounded down to a multiple of the smallest block covering it.
func NewBuddy(frames uint64) *Buddy {
	b := &Buddy{frames: frames}
	for o := range b.free {
		b.free[o] = make(map[Frame]struct{})
	}
	// Seed the free lists greedily from address 0 with the largest blocks
	// that fit.
	var at uint64
	for at < frames {
		o := MaxOrder
		for o > 0 && (at&(blockFrames(o)-1) != 0 || at+blockFrames(o) > frames) {
			o--
		}
		if at+blockFrames(o) > frames {
			break // trailing fragment smaller than one page block; ignore
		}
		b.pushFree(Frame(at), o)
		at += blockFrames(o)
	}
	return b
}

// blockFrames returns the number of frames in a block of the given order.
func blockFrames(order int) uint64 { return uint64(1) << order }

// InUse returns the number of frames currently allocated.
func (b *Buddy) InUse() uint64 { return b.inUse }

func (b *Buddy) pushFree(f Frame, order int) {
	b.free[order][f] = struct{}{}
	b.stack[order] = append(b.stack[order], f)
}

// popFree removes and returns the most recently freed block of the order, or
// false if none is free. Stale stack entries (blocks removed by coalescing or
// AllocAt) are skipped lazily.
func (b *Buddy) popFree(order int) (Frame, bool) {
	s := b.stack[order]
	for len(s) > 0 {
		f := s[len(s)-1]
		s = s[:len(s)-1]
		if _, ok := b.free[order][f]; ok {
			delete(b.free[order], f)
			b.stack[order] = s
			return f, true
		}
	}
	b.stack[order] = s
	return 0, false
}

// removeFree removes a specific free block; reports whether it was free.
func (b *Buddy) removeFree(f Frame, order int) bool {
	if _, ok := b.free[order][f]; !ok {
		return false
	}
	delete(b.free[order], f)
	return true
}

// Alloc allocates a block of 2^order frames and returns its first frame.
func (b *Buddy) Alloc(order int) (Frame, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("mem: invalid order %d", order)
	}
	o := order
	for o <= MaxOrder {
		if f, ok := b.popFree(o); ok {
			// Split down to the requested order, freeing the upper halves.
			for o > order {
				o--
				b.pushFree(f+Frame(blockFrames(o)), o)
			}
			b.inUse += blockFrames(order)
			return f, nil
		}
		o++
	}
	return 0, ErrOutOfMemory
}

// AllocPage allocates a single frame.
func (b *Buddy) AllocPage() (Frame, error) { return b.Alloc(0) }

// AllocAt carves out the specific block [f, f+2^order) if it is entirely
// free, splitting larger free blocks as needed. It is used to extend ASAP's
// reserved page-table regions at a fixed boundary (paper §3.7.2).
func (b *Buddy) AllocAt(f Frame, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("mem: invalid order %d", order)
	}
	if uint64(f)&(blockFrames(order)-1) != 0 {
		return fmt.Errorf("mem: AllocAt frame %d not aligned to order %d", f, order)
	}
	if uint64(f)+blockFrames(order) > b.frames {
		return ErrNotFree
	}
	// Find the free ancestor block containing f.
	for o := order; o <= MaxOrder; o++ {
		base := Frame(uint64(f) &^ (blockFrames(o) - 1))
		if !b.removeFree(base, o) {
			continue
		}
		// Split the ancestor down, keeping only the halves not containing f.
		for o > order {
			o--
			half := blockFrames(o)
			if uint64(f)&half != 0 {
				// f lives in the upper half: lower half stays free.
				b.pushFree(base, o)
				base += Frame(half)
			} else {
				b.pushFree(base+Frame(half), o)
			}
		}
		b.inUse += blockFrames(order)
		return nil
	}
	return ErrNotFree
}

// Free returns a block of 2^order frames starting at f to the allocator,
// coalescing with its buddy where possible.
func (b *Buddy) Free(f Frame, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("mem: invalid order %d", order))
	}
	if uint64(f)&(blockFrames(order)-1) != 0 {
		panic(fmt.Sprintf("mem: Free frame %d not aligned to order %d", f, order))
	}
	b.inUse -= blockFrames(order)
	for order < MaxOrder {
		buddy := Frame(uint64(f) ^ blockFrames(order))
		if uint64(buddy)+blockFrames(order) > b.frames || !b.removeFree(buddy, order) {
			break
		}
		if buddy < f {
			f = buddy
		}
		order++
	}
	b.pushFree(f, order)
}

// Reserve allocates a contiguous run of frames (not necessarily a power of
// two) and returns its first frame. It first tries a single power-of-two
// block; if the run exceeds the largest block it stitches adjacent max-order
// blocks with AllocAt. This models the OS reserving an ASAP page-table region
// at VMA creation time (paper §3.3).
func (b *Buddy) Reserve(frames uint64) (Frame, error) {
	if frames == 0 {
		return 0, fmt.Errorf("mem: Reserve of zero frames")
	}
	order := 0
	for blockFrames(order) < frames && order < MaxOrder {
		order++
	}
	if blockFrames(order) >= frames {
		f, err := b.Alloc(order)
		if err != nil {
			return 0, err
		}
		// Return the unused tail so the reservation is exactly sized.
		b.freeTail(f, frames, order)
		return f, nil
	}
	// Stitch consecutive max-order blocks. Eager coalescing keeps any fully
	// free, max-order-aligned region represented as a single free block, so
	// scanning the max-order free set for a consecutive run is sufficient.
	need := (frames + blockFrames(MaxOrder) - 1) / blockFrames(MaxOrder)
	blocks := make([]Frame, 0, len(b.free[MaxOrder]))
	for f := range b.free[MaxOrder] {
		blocks = append(blocks, f)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	run := uint64(0)
	for i, f := range blocks {
		if i > 0 && f == blocks[i-1]+Frame(blockFrames(MaxOrder)) {
			run++
		} else {
			run = 1
		}
		if run < need {
			continue
		}
		anchor := f - Frame((need-1)*blockFrames(MaxOrder))
		for k := uint64(0); k < need; k++ {
			b.removeFree(anchor+Frame(k*blockFrames(MaxOrder)), MaxOrder)
		}
		b.inUse += need * blockFrames(MaxOrder)
		b.freeTail(anchor, frames, MaxOrder)
		return anchor, nil
	}
	// A production OS would migrate pages to create the run; the simulator
	// treats failure as a hole source instead (see pt.ASAPAllocator).
	return 0, ErrOutOfMemory
}

// freeTail returns the frames beyond want within the allocated block of the
// given order back to the free lists, keeping the reservation exactly want
// frames (when want spans multiple stitched blocks the caller passes the
// total and the tail lies in the final block).
func (b *Buddy) freeTail(base Frame, want uint64, order int) {
	total := blockFrames(order)
	if n := (want + total - 1) / total; n > 1 {
		total *= n
	}
	for at := want; at < total; {
		// Free the largest aligned block that fits in [at, total).
		o := 0
		for o < MaxOrder &&
			(uint64(base)+at)&(blockFrames(o+1)-1) == 0 &&
			at+blockFrames(o+1) <= total {
			o++
		}
		b.Free(base+Frame(at), o)
		at += blockFrames(o)
	}
}

// ContiguousRuns returns the number of maximal runs of consecutive frames in
// fs (Table 2's "contiguous physical regions" statistic). fs may be in any
// order and is not modified.
func ContiguousRuns(fs []Frame) int {
	if len(fs) == 0 {
		return 0
	}
	sorted := make([]Frame, len(fs))
	copy(sorted, fs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	runs := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			runs++
		}
	}
	return runs
}
