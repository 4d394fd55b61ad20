// Package core implements the paper's contribution: ASAP, Address
// Translation with Prefetching.
//
// ASAP adds a small file of architecturally exposed range registers to the
// TLB-miss path. Each register describes one prefetchable VMA: its virtual
// range and the physical base addresses of the contiguous, virtually sorted
// regions holding that VMA's page-table nodes for the deep levels (PL1 and
// PL2, plus PL3 under the five-level extension). On a TLB miss the faulting
// address is matched against the registers; on a hit the physical addresses
// of the PL1/PL2 entries the walk will reach are computed with base-plus-
// offset arithmetic and prefetched into L1-D, concurrently with the normal
// walk. The walk itself is unmodified and validates everything it consumes,
// so ASAP is invisible to correctness (paper §3.1).
package core

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pt"
)

// Config selects which page-table levels ASAP prefetches. The paper's main
// configurations are P1 (leaf level only) and P1+P2; P3 exists for the
// five-level extension of §3.5.
type Config struct {
	P1 bool
	P2 bool
	P3 bool
}

// Enabled reports whether any prefetch level is selected.
func (c Config) Enabled() bool { return c.P1 || c.P2 || c.P3 }

// Levels returns the selected levels, deepest first.
func (c Config) Levels() []int {
	var ls []int
	if c.P1 {
		ls = append(ls, 1)
	}
	if c.P2 {
		ls = append(ls, 2)
	}
	if c.P3 {
		ls = append(ls, 3)
	}
	return ls
}

// String names the configuration the way the paper's figures do.
func (c Config) String() string {
	if !c.Enabled() {
		return "baseline"
	}
	s := ""
	for _, l := range c.Levels() {
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("P%d", l)
	}
	return s
}

// ParseConfig parses a figure-style configuration name as the CLIs accept
// it: "off" (also "", "baseline", "none"), "p1", "p2", "p1+p2", "p1+p2+p3".
func ParseConfig(s string) (Config, error) {
	var c Config
	switch strings.ToLower(s) {
	case "", "off", "baseline", "none":
	case "p1":
		c.P1 = true
	case "p2":
		c.P2 = true
	case "p1+p2":
		c.P1, c.P2 = true, true
	case "p1+p2+p3":
		c.P1, c.P2, c.P3 = true, true, true
	default:
		return c, fmt.Errorf("core: unknown ASAP config %q (want off, p1, p2, p1+p2, p1+p2+p3)", s)
	}
	return c, nil
}

// MaxLevels bounds the per-descriptor level array (root of a 5-level tree).
const MaxLevels = 5

// Descriptor is one VMA descriptor: the architectural state ASAP exposes per
// prefetch-target VMA (paper §3.4, Figure 6). Base[L] is the physical address
// of the sorted region holding the VMA's level-L page-table nodes; 0 means
// the level is not prefetchable for this VMA.
type Descriptor struct {
	Start mem.VirtAddr
	End   mem.VirtAddr
	Base  [MaxLevels + 1]mem.PhysAddr
	Has   [MaxLevels + 1]bool
}

// Contains reports whether va falls in the descriptor's range.
func (d *Descriptor) Contains(va mem.VirtAddr) bool { return va >= d.Start && va < d.End }

// TargetAddr computes, with base-plus-offset arithmetic, the physical address
// of the level-L page-table entry that a walk of va will read. This is the
// paper's PL{L}_base + (offset >> s{L}) computation: the sorted region places
// the node for va's span at a fixed slot, and the entry at a fixed offset
// within it.
func (d *Descriptor) TargetAddr(level int, va mem.VirtAddr) (mem.PhysAddr, bool) {
	if level < 1 || level > MaxLevels || !d.Has[level] {
		return 0, false
	}
	span := pt.SpanShift(level)
	nodeIdx := uint64(va)>>span - uint64(d.Start)>>span
	entryIdx := uint64(va) >> pt.SpanShift(level-1) & (mem.NodeSpan - 1)
	return d.Base[level] + mem.PhysAddr(nodeIdx*mem.PageSize+entryIdx*mem.PTEBytes), true
}

// Target is one computed prefetch: the PT level it covers and the physical
// address of the entry to fetch.
type Target struct {
	Level int
	Addr  mem.PhysAddr
}

// Engine is the range-register file plus prefetch-target computation. It is
// per hardware thread; the OS swaps its contents on context switches.
type Engine struct {
	cfg      Config
	capacity int
	regs     []*Descriptor

	// Trace, when non-nil, receives a range-probe event per lookup
	// (internal/obs). Disabled tracing costs one nil check per TLB miss.
	Trace *obs.Tracer

	lookups    uint64
	rangeHits  uint64
	installs   uint64
	overflowed uint64
}

// NewEngine returns an engine with the given register capacity (the paper
// finds 8–16 registers cover 99% of the studied footprints, §3.4).
func NewEngine(capacity int, cfg Config) *Engine {
	if capacity <= 0 {
		panic("core: engine needs at least one range register")
	}
	return &Engine{cfg: cfg, capacity: capacity}
}

// Capacity returns the number of range registers.
func (e *Engine) Capacity() int { return e.capacity }

// Install loads a descriptor into a free range register. When all registers
// are occupied the descriptor is dropped (and counted): walks into its VMA
// simply run unaccelerated, mirroring the paper's capacity-limited design.
func (e *Engine) Install(d *Descriptor) bool {
	e.installs++
	if len(e.regs) >= e.capacity {
		e.overflowed++
		return false
	}
	e.regs = append(e.regs, d)
	return true
}

// Swap replaces the register-file contents with the descriptor file of an
// incoming process — the per-context-switch OS work the paper's cost argument
// is about (§3.3: the VMA descriptors are per-thread architectural state the
// OS saves and restores like any other register). The outgoing contents are
// discarded (each process's canonical descriptor file lives with its address
// space, so there is nothing to write back), the incoming descriptors install
// under the usual capacity limit — descriptors beyond the register count are
// dropped and counted, every switch, exactly as a real capacity-limited
// restore would drop them — and the cumulative lookup/hit/overflow counters
// carry across the swap so windowed metering spans all processes. The return
// value is the number of registers moved (saved + restored), the volume that
// scales the modeled switch cost.
func (e *Engine) Swap(descs []*Descriptor) int {
	saved := len(e.regs)
	e.regs = e.regs[:0]
	for _, d := range descs {
		e.Install(d)
	}
	return saved + len(e.regs)
}

// Lookup matches va against the range registers (the check that runs in
// parallel with page-walker activation on every TLB miss).
func (e *Engine) Lookup(va mem.VirtAddr) *Descriptor {
	e.lookups++
	for _, d := range e.regs {
		if d.Contains(va) {
			e.rangeHits++
			if e.Trace != nil {
				e.Trace.AccelProbe("range", true)
			}
			return d
		}
	}
	if e.Trace != nil {
		e.Trace.AccelProbe("range", false)
	}
	return nil
}

// Targets appends the prefetch targets for va to buf and returns it. It
// returns buf unchanged when va misses the range registers or no configured
// level is available in the matching descriptor.
func (e *Engine) Targets(va mem.VirtAddr, buf []Target) []Target {
	if !e.cfg.Enabled() {
		return buf
	}
	d := e.Lookup(va)
	if d == nil {
		return buf
	}
	// The levels are read in place, deepest first as Levels lists them:
	// Levels allocates, and Targets runs on every accelerated walk.
	for i, on := range [...]bool{e.cfg.P1, e.cfg.P2, e.cfg.P3} {
		if !on {
			continue
		}
		if addr, ok := d.TargetAddr(i+1, va); ok {
			buf = append(buf, Target{Level: i + 1, Addr: addr})
		}
	}
	return buf
}

// RangeHitRate returns the fraction of lookups that matched a register.
func (e *Engine) RangeHitRate() float64 {
	if e.lookups == 0 {
		return 0
	}
	return float64(e.rangeHits) / float64(e.lookups)
}

// Lookups returns the cumulative number of range-register lookups.
func (e *Engine) Lookups() uint64 { return e.lookups }

// RangeHits returns the cumulative number of lookups that matched a register.
func (e *Engine) RangeHits() uint64 { return e.rangeHits }

// Overflowed returns how many descriptors were dropped for lack of registers.
func (e *Engine) Overflowed() uint64 { return e.overflowed }
