package mem

import "repro/internal/rng"

// Scatter hands out unique pseudo-randomly scattered frames from a physical
// frame space. It models the paper's host baseline ("mimicking the Linux
// buddy allocator's behavior by randomly scattering the PT pages") without
// the cost of simulating every data-page allocation: successive Alloc calls
// return frames that are unique and uniformly spread over [base, base+span).
type Scatter struct {
	base Frame
	perm *rng.Perm
	next uint64
}

// NewScatter returns a scatter allocator over span frames starting at base,
// with allocation order determined by seed.
func NewScatter(base Frame, span uint64, seed uint64) *Scatter {
	return &Scatter{base: base, perm: rng.NewPerm(span, seed)}
}

// Alloc returns the next scattered frame. It panics if the space is
// exhausted, which indicates a mis-sized simulation rather than a runtime
// condition a caller could handle.
func (s *Scatter) Alloc() Frame {
	if s.next >= s.perm.N() {
		panic("mem: scatter allocator exhausted")
	}
	f := s.base + Frame(s.perm.Apply(s.next))
	s.next++
	return f
}

// Bump hands out consecutive frames starting at base. It is the degenerate
// "perfectly contiguous" allocator used for ASAP's reserved page-table
// regions and for carving fixed areas of the machine address space.
type Bump struct {
	next Frame
	end  Frame
}

// NewBump returns a bump allocator over [base, base+span).
func NewBump(base Frame, span uint64) *Bump {
	return &Bump{next: base, end: base + Frame(span)}
}

// Alloc returns the next frame in the region.
func (b *Bump) Alloc() Frame {
	if b.next >= b.end {
		panic("mem: bump allocator exhausted")
	}
	f := b.next
	b.next++
	return f
}

// Remaining returns the number of frames left in the region.
func (b *Bump) Remaining() uint64 { return uint64(b.end - b.next) }

// Reserve carves a contiguous run of frames from the region, making Bump
// usable wherever a contiguous-region reserver (like Buddy.Reserve) is
// expected.
func (b *Bump) Reserve(frames uint64) (Frame, error) {
	if frames > b.Remaining() {
		return 0, ErrOutOfMemory
	}
	f := b.next
	b.next += Frame(frames)
	return f, nil
}
