// Package mmu defines the pluggable translation-scheme interface the
// simulator's run loop drives: everything between "the core issued a data
// reference" and "the translation is resolved" — TLB lookups, page walks,
// prefetch engines, speculative translation — lives behind Scheme, so rival
// MMU designs can be modeled without forking the hot loop.
//
// Three backends are registered:
//
//   - asap: the paper's pipeline — two-level TLB, split PWCs, radix walks,
//     and the ASAP range-register prefetch engine (byte-identical to the
//     historical inlined path in internal/sim).
//   - victima: Victima-style TLB-entry residency in the L2 data cache
//     (PAPERS.md): on an L2-TLB miss the backing PTE line is probed in the
//     L2 cache before falling back to a full walk, and walked translations
//     are transplanted into the cache-resident set.
//   - revelator: system-software-guided hash-based speculative translation
//     (PAPERS.md): per-page-size OS hash tables are fetched through the data
//     hierarchy on an L2-TLB miss; a hash hit yields a speculative
//     translation verified by an off-critical-path walk, a miss falls back
//     to the walk and the OS records the translation.
package mmu

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pt"
	"repro/internal/pwc"
	"repro/internal/tlb"
	"repro/internal/walker"
)

// Process is the per-address-space state a scheme translates against: the
// page table, the data placement (for TLB fills and coalescing probes) and
// the ASAP descriptor file the OS would swap on context switches (empty for
// schemes and configurations without range registers).
type Process struct {
	Table *pt.Table
	// Frame returns the physical frame backing a virtual page number.
	Frame func(vpn uint64) uint64
	// Neighbors reports the frames of adjacent pages for coalescing TLBs
	// (nil for placements without a coalescing probe).
	Neighbors tlb.NeighborFunc
	// Descs is the process's VMA descriptor file (asap scheme only).
	Descs []*core.Descriptor
}

// Counters is a snapshot of a scheme's cumulative translation counters, taken
// at the warmup/measure boundary and at run end so internal/sim's meter can
// report measured-window deltas without knowing which scheme ran. Lookups and
// Hits are the scheme's acceleration-path probes: ASAP range-register
// lookups, Victima L2-residency probes, or Revelator hash-table probes —
// each scheme's "did my mechanism cover this miss" rate lands in the same
// report column. Fields a scheme has no counterpart for stay zero.
type Counters struct {
	TLBAccesses uint64
	TLBL2Misses uint64
	TLBFlushes  uint64

	Lookups    uint64
	Hits       uint64
	Overflowed uint64

	HostLookups    uint64
	HostHits       uint64
	HostOverflowed uint64

	MSHRDropped uint64
}

// Scheme is one pluggable translation backend. The run loop drives it with
// the lifecycle of a time-shared core: Attach registers each process once,
// Boot makes the first process current, Switch performs a context switch
// (charging descriptor-swap volume back to the caller), and Translate
// resolves one reference.
type Scheme interface {
	// Attach registers process pid's address-space state. Processes are
	// attached once, before Boot, with dense pids starting at 0.
	Attach(pid int, p *Process)
	// Boot makes pid the current process and loads its descriptor state,
	// modeling boot-time setup rather than a context switch: no flush or
	// ASID policy action is taken and no cost is reported.
	Boot(pid int)
	// Switch makes pid the current process: descriptor files are swapped and
	// translation state follows the configured policy (flush-on-switch or
	// ASID retagging). It returns the number of descriptor registers moved
	// (saved + restored), the volume that scales the caller's modeled switch
	// cost; schemes without descriptor state return 0.
	Switch(pid int) int
	// Translate resolves the reference to va at absolute time now. It
	// reports false for a TLB hit (wr untouched); on a TLB miss it performs
	// the scheme's resolution path, fills wr with the walk result — Cycles
	// is the translation's critical-path latency — and reports true.
	Translate(now int64, va mem.VirtAddr, wr *walker.Result) bool
	// Counters snapshots the cumulative translation counters.
	Counters() Counters
}

// Config carries the platform state a native scheme builds on. The TLB, PWC
// and any scheme-private structures are constructed per scheme; the cache
// hierarchy and MSHR file are the simulation's shared ones.
type Config struct {
	Hier *cache.Hierarchy
	MSHR *cache.MSHRFile
	PWC  pwc.Config
	// ClusteredTLB replaces the second-level TLB with the clustered design.
	ClusteredTLB bool
	// ASAP selects the range-prefetch levels (asap scheme only; rival
	// schemes reject enabled configurations upstream).
	ASAP core.Config
	// RangeRegisters is the descriptor capacity of the asap engine.
	RangeRegisters int
	// FlushOnSwitch selects the untagged context-switch policy: Switch
	// flushes translation state instead of retagging by ASID.
	FlushOnSwitch bool
	// Trace, when non-nil, receives the scheme's translation events: TLB
	// hits, walk-context opens, acceleration-path probes (internal/obs).
	// Disabled tracing costs one nil check per translation.
	Trace *obs.Tracer
}

// schemeNames lists the registered backends in presentation order.
var schemeNames = []string{"asap", "victima", "revelator"}

// Names returns the registered scheme names.
func Names() []string { return append([]string(nil), schemeNames...) }

// Canonical resolves a scheme name to its registry entry: the empty string —
// the zero Scenario value every pre-scheme cell carries — is the asap
// pipeline.
func Canonical(name string) string {
	if name == "" {
		return "asap"
	}
	return name
}

// Validate checks that name denotes a registered scheme ("" selects asap).
func Validate(name string) error {
	name = Canonical(name)
	for _, n := range schemeNames {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("mmu: unknown translation scheme %q (have %s)",
		name, strings.Join(schemeNames, ", "))
}

// ParseASAP parses a figure-style ASAP configuration (core.ParseConfig) in
// the context of a scheme selection, rejecting contradictory combinations:
// prefetch levels are the asap scheme's mechanism, so enabling them under a
// rival scheme is an error rather than a silently dropped flag.
func ParseASAP(scheme, s string) (core.Config, error) {
	cfg, err := core.ParseConfig(s)
	if err != nil {
		return core.Config{}, err
	}
	if cfg.Enabled() && Canonical(scheme) != "asap" {
		return core.Config{}, fmt.Errorf(
			"mmu: scheme %s does not take ASAP prefetch levels (got %q; use -scheme asap)",
			Canonical(scheme), s)
	}
	return cfg, nil
}

// New constructs the named scheme over the given platform.
func New(name string, cfg Config) (Scheme, error) {
	switch Canonical(name) {
	case "asap":
		return newASAP(cfg), nil
	case "victima":
		return newVictima(cfg), nil
	case "revelator":
		return newRevelator(cfg), nil
	}
	return nil, Validate(name)
}

// procList is the dense pid-indexed process registry shared by the native
// schemes (a slice, not a map, so iteration and growth are deterministic).
type procList []*Process

func (l *procList) attach(pid int, p *Process) {
	for len(*l) <= pid {
		*l = append(*l, nil)
	}
	(*l)[pid] = p
}
