package cache

import (
	"fmt"

	"repro/internal/mem"
)

// ServedBy identifies the memory-hierarchy level that satisfied an access.
// PWC is included so that page-walk accounting (Fig 9) can attribute skipped
// walk levels to the page-walk caches.
type ServedBy int

// Hierarchy levels, fastest first.
const (
	ServedPWC ServedBy = iota
	ServedL1
	ServedL2
	ServedL3
	ServedMem
	servedCount
)

// NumServedBy is the number of ServedBy values, for sizing breakdown tables.
const NumServedBy = int(servedCount)

// String returns the conventional name of the level.
func (s ServedBy) String() string {
	switch s {
	case ServedPWC:
		return "PWC"
	case ServedL1:
		return "L1"
	case ServedL2:
		return "L2"
	case ServedL3:
		return "LLC"
	case ServedMem:
		return "Mem"
	default:
		return fmt.Sprintf("ServedBy(%d)", int(s))
	}
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	SizeBytes int
	Ways      int
	Latency   int // total load-to-use latency when served at this level
}

// Config describes the whole hierarchy. The defaults mirror the paper's
// Table 5 (Intel Broadwell-like).
type Config struct {
	L1, L2, L3 LevelConfig
	MemLatency int
}

// DefaultConfig returns the paper's Table 5 hierarchy: 32 KB/8-way L1 at 4
// cycles, 256 KB/8-way L2 at 12 cycles, 20 MB/20-way L3 at 40 cycles and
// 191-cycle main memory.
func DefaultConfig() Config {
	return Config{
		L1:         LevelConfig{SizeBytes: 32 << 10, Ways: 8, Latency: 4},
		L2:         LevelConfig{SizeBytes: 256 << 10, Ways: 8, Latency: 12},
		L3:         LevelConfig{SizeBytes: 20 << 20, Ways: 20, Latency: 40},
		MemLatency: 191,
	}
}

// Hierarchy is the simulated L1-D/L2/LLC/DRAM stack. It tracks only tags
// (this is a timing model, not a data model) and fills every level it missed
// in on the way back. The levels are non-inclusive: each replaces on its own,
// and an LLC eviction does not back-invalidate L1 or L2, so a line kept hot
// in L1 can outlive its LLC copy.
//
// L1 and L2 are SetAssoc arrays of whole line numbers. The LLC stores each
// line's 32-bit tag above its set-index bits, half the footprint of whole
// lines; a line whose tag would not fit makes Access panic. Under the
// default 16384-set LLC every line below 2^46 fits.
type Hierarchy struct {
	cfg    Config
	l1, l2 *SetAssoc
	llc    *llcArray
	lats   [NumServedBy]int // by serving level; the PWC entry is unused
	served [NumServedBy]uint64
}

// NewHierarchy builds the stack from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	lines := func(lc LevelConfig) int { return lc.SizeBytes / mem.LineBytes }
	h := &Hierarchy{
		cfg: cfg,
		l1:  NewSetAssoc(lines(cfg.L1), cfg.L1.Ways),
		l2:  NewSetAssoc(lines(cfg.L2), cfg.L2.Ways),
		llc: newLLCArray(lines(cfg.L3), cfg.L3.Ways),
	}
	h.lats[ServedL1] = cfg.L1.Latency
	h.lats[ServedL2] = cfg.L2.Latency
	h.lats[ServedL3] = cfg.L3.Latency
	h.lats[ServedMem] = cfg.MemLatency
	return h
}

// Config returns the hierarchy parameters.
func (h *Hierarchy) Config() Config { return h.cfg }

// Access performs a demand access to addr: it returns the level that served
// the line and the access latency, and installs the line in every level that
// missed.
//
// Each level is probed and filled in a single combined scan: a LookupInsert
// miss at a level both detects the miss and performs the fill on the way
// back, so a full miss costs one set scan per level instead of two.
func (h *Hierarchy) Access(addr mem.PhysAddr) (ServedBy, int) {
	line := addr.Line()
	s := ServedMem
	switch {
	case h.l1.LookupInsert(line):
		s = ServedL1
	case h.l2.LookupInsert(line):
		s = ServedL2
	case h.llc.LookupInsert(line):
		s = ServedL3
	}
	h.served[s]++
	return s, h.lats[s]
}

// AccessAll is exactly Access on each address of addrs in order, served
// counts included, with the latencies discarded: the burst form in which the
// SMT co-runner and multi-process quantum replay issue their traffic.
func (h *Hierarchy) AccessAll(addrs []mem.PhysAddr) {
	for _, a := range addrs {
		h.Access(a)
	}
}

// Latency returns the access latency when served at the given level. PWC is
// not part of the data hierarchy and is rejected.
func (h *Hierarchy) Latency(s ServedBy) int {
	if s < ServedL1 || s >= servedCount {
		panic(fmt.Sprintf("cache: no latency for %v", s))
	}
	return h.lats[s]
}

// Where probes for the line without changing any state, reporting the level
// that would serve it.
func (h *Hierarchy) Where(addr mem.PhysAddr) ServedBy {
	line := addr.Line()
	switch {
	case h.l1.Contains(line):
		return ServedL1
	case h.l2.Contains(line):
		return ServedL2
	case h.llc.Contains(line):
		return ServedL3
	}
	return ServedMem
}

// ServedCount returns how many accesses each level has served.
func (h *Hierarchy) ServedCount(s ServedBy) uint64 { return h.served[s] }

// MSHRFile models the L1-D miss-status holding registers. ASAP prefetches
// are issued only if a free MSHR is available at issue time (paper §3.4:
// "prefetches are thus best-effort").
type MSHRFile struct {
	busyUntil []int64
	dropped   uint64
}

// NewMSHRFile returns a file with n registers.
func NewMSHRFile(n int) *MSHRFile {
	if n <= 0 {
		panic("cache: MSHR file needs at least one register")
	}
	return &MSHRFile{busyUntil: make([]int64, n)}
}

// TryAcquire claims a register from now until until; it reports false (and
// counts a drop) if all registers are busy.
func (m *MSHRFile) TryAcquire(now, until int64) bool {
	for i, b := range m.busyUntil {
		if b <= now {
			m.busyUntil[i] = until
			return true
		}
	}
	m.dropped++
	return false
}

// InUse returns the number of registers busy at time now.
func (m *MSHRFile) InUse(now int64) int {
	n := 0
	for _, b := range m.busyUntil {
		if b > now {
			n++
		}
	}
	return n
}

// Dropped returns how many acquisitions failed.
func (m *MSHRFile) Dropped() uint64 { return m.dropped }
