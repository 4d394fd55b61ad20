package sim

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CellSpec names one scenario cell in the front ends' vocabulary: the
// cmd/asapsim and cmd/asaptrace flags bind onto it, and its JSON form is a
// cell of an asapd job. Parse turns it into a Scenario.
type CellSpec struct {
	Workload      string `json:"workload"`
	Virtualized   bool   `json:"virtualized,omitempty"`
	Colocated     bool   `json:"colocated,omitempty"`
	HostHugePages bool   `json:"host_huge_pages,omitempty"`
	ClusteredTLB  bool   `json:"clustered_tlb,omitempty"`
	ASAP          string `json:"asap,omitempty"`   // native config: off, p1, p1+p2, ...
	Guest         string `json:"guest,omitempty"`  // guest config (with virtualized)
	Host          string `json:"host,omitempty"`   // host config (with virtualized)
	Scheme        string `json:"scheme,omitempty"` // translation scheme (empty = asap)
	Mix           string `json:"mix,omitempty"`    // multi-process mix names
	// Trace is a trace file (recorded with asaptrace) that drives this cell
	// as a replay; the workload comes from the trace header, and Workload,
	// when set, must name the same one.
	Trace string `json:"trace,omitempty"`
}

// ParamSpec is the subset of Params a front end may override. Zero keeps the
// default (DefaultParams, or FastParams with Fast); a negative value is an
// error.
type ParamSpec struct {
	Fast           bool    `json:"fast,omitempty"` // reduced measurement protocol
	WarmupWalks    int     `json:"warmup_walks,omitempty"`
	MeasureWalks   int     `json:"measure_walks,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	Processes      int     `json:"processes,omitempty"`
	QuantumRefs    int     `json:"quantum_refs,omitempty"`
	FlushOnSwitch  bool    `json:"flush_on_switch,omitempty"`
	RangeRegisters int     `json:"range_registers,omitempty"`
	HoleProb       float64 `json:"hole_prob,omitempty"`
	FiveLevel      bool    `json:"five_level,omitempty"`
}

// FastParams is the reduced measurement protocol for smoke runs: the
// defaults with shorter warmup and measured windows.
func FastParams() Params {
	p := DefaultParams()
	p.WarmupWalks = 10_000
	p.MeasureWalks = 8_000
	return p
}

// Parse is the one decoder from names and overrides to a simulation cell:
// it resolves the workload (or loads and registers the trace), canonicalises
// the scheme, parses the ASAP configs, applies the overrides and returns the
// cell only if Validate accepts it.
func Parse(cs CellSpec, ps ParamSpec) (Scenario, Params, error) {
	p, err := ps.params()
	if err != nil {
		return Scenario{}, Params{}, err
	}
	sc, err := cs.scenario()
	if err != nil {
		return Scenario{}, Params{}, err
	}
	if err := Validate(sc, p); err != nil {
		return Scenario{}, Params{}, err
	}
	return sc, p, nil
}

func (ps ParamSpec) params() (Params, error) {
	p := DefaultParams()
	if ps.Fast {
		p = FastParams()
	}
	if err := errors.Join(
		override("WarmupWalks", &p.WarmupWalks, ps.WarmupWalks),
		override("MeasureWalks", &p.MeasureWalks, ps.MeasureWalks),
		override("Processes", &p.Processes, ps.Processes),
		override("QuantumRefs", &p.QuantumRefs, ps.QuantumRefs),
		override("RangeRegisters", &p.RangeRegisters, ps.RangeRegisters),
		override("HoleProb", &p.HoleProb, ps.HoleProb),
	); err != nil {
		return Params{}, err
	}
	// A lone process never switches, so Validate accepts both fields there;
	// only the spec shows they were asked for, and taking them would give an
	// identical run a cell key of its own.
	if p.Processes <= 1 && (ps.QuantumRefs != 0 || ps.FlushOnSwitch) {
		return Params{}, fmt.Errorf("sim: QuantumRefs and FlushOnSwitch need Processes > 1")
	}
	if ps.Seed != 0 {
		p.Seed = ps.Seed
	}
	p.FlushOnSwitch = ps.FlushOnSwitch
	p.FiveLevel = ps.FiveLevel
	return p, nil
}

// override applies one ParamSpec field to dst. Any non-zero value is taken,
// so a NaN reaches Validate rather than passing for the default.
func override[T int | float64](name string, dst *T, v T) error {
	if v < 0 {
		return fmt.Errorf("sim: %s must not be negative (0 keeps the default), got %v", name, v)
	}
	if v != 0 {
		*dst = v
	}
	return nil
}

func (cs CellSpec) scenario() (Scenario, error) {
	var sc Scenario
	if cs.Trace != "" {
		// LoadFile's errors name the path once and quote no file bytes.
		tr, err := trace.LoadFile(cs.Trace)
		if err != nil {
			return sc, err
		}
		sc = UseTrace(tr)
		if cs.Workload != "" && cs.Workload != sc.Workload.Name {
			return sc, fmt.Errorf("sim: trace %s records workload %s, not %s",
				cs.Trace, sc.Workload.Name, cs.Workload)
		}
	} else {
		spec, ok := workload.ByName(cs.Workload)
		if !ok {
			return sc, fmt.Errorf("sim: unknown workload %q (have %s)",
				cs.Workload, strings.Join(workload.Names(), ", "))
		}
		sc.Workload = spec
	}
	sc.Virtualized = cs.Virtualized
	sc.Colocated = cs.Colocated
	sc.HostHugePages = cs.HostHugePages
	sc.ClusteredTLB = cs.ClusteredTLB
	sc.Mix = cs.Mix
	if err := mmu.Validate(cs.Scheme); err != nil {
		return sc, err
	}
	if scheme := mmu.Canonical(cs.Scheme); scheme != "asap" {
		// asap keeps the zero value, so names, memo keys and store keys
		// match the cells that predate the scheme axis.
		sc.Scheme = scheme
	}
	// Prefetch levels are the asap scheme's mechanism, so the native config
	// parses in scheme context.
	var err error
	if sc.ASAP.Native, err = mmu.ParseASAP(cs.Scheme, cs.ASAP); err != nil {
		return sc, fmt.Errorf("asap: %w", err)
	}
	if sc.ASAP.Guest, err = core.ParseConfig(cs.Guest); err != nil {
		return sc, fmt.Errorf("guest: %w", err)
	}
	if sc.ASAP.Host, err = core.ParseConfig(cs.Host); err != nil {
		return sc, fmt.Errorf("host: %w", err)
	}
	return sc, nil
}
