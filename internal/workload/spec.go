// Package workload synthesizes the paper's Table 3 benchmarks: per-workload
// virtual address space layouts (shaped after the VMA statistics of Table 2),
// memory-access pattern generators (pointer chase, uniform random, zipfian
// key-value lookups, graph scans), deterministic data-page physical placement
// with a per-workload contiguity model (for the Clustered TLB study), and the
// synthetic SMT co-runner of §4.
//
// The original evaluation drove the simulator with page-table dumps and
// memory traces captured from the real applications; those are substituted
// here by synthetic processes with the same dataset sizes, page-table
// footprints and locality classes (see DESIGN.md §2).
package workload

import (
	"fmt"

	"repro/internal/mem"
)

// Pattern classifies a workload's data access behaviour.
type Pattern int

// Access patterns.
const (
	// Chase follows a pseudo-random pointer chain over the resident pages
	// (SPEC mcf's dominant behaviour).
	Chase Pattern = iota
	// Uniform touches resident pages uniformly at random (canneal's random
	// element swaps).
	Uniform
	// Zipf performs scrambled-zipfian key lookups (memcached, redis).
	Zipf
	// GraphScan mixes a sequential CSR sweep with random neighbour accesses
	// (bfs, pagerank).
	GraphScan
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Chase:
		return "chase"
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case GraphScan:
		return "graph-scan"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Spec describes one synthetic workload.
type Spec struct {
	Name        string
	Description string

	// DatasetBytes is the resident dataset size (Table 3).
	DatasetBytes uint64
	// SpreadFactor is the ratio of VMA span to resident bytes: each dataset
	// area keeps a dense resident prefix plus a sparsely touched tail,
	// reproducing the page-table footprints behind Table 2's PT page counts.
	SpreadFactor float64
	// TotalVMAs and BigVMAs shape the address space after Table 2: BigVMAs
	// dataset areas cover ~99% of the footprint; the rest are small lib,
	// stack and mapping areas.
	TotalVMAs int
	BigVMAs   int

	Pattern   Pattern
	ZipfTheta float64 // skew for Zipf pattern
	// HotFraction/HotProb add temporal locality to Chase and Uniform: with
	// probability HotProb an access lands in the hottest HotFraction of
	// resident pages.
	HotFraction float64
	HotProb     float64
	// SeqRatio is the fraction of sequential accesses for GraphScan.
	SeqRatio float64
	// BurstLen is the mean length of sequential page bursts (spatial
	// locality); 1 disables bursts.
	BurstLen float64
	// LinesPerVisit is the mean number of consecutive accesses to a page
	// before the pattern moves on (records span multiple cache lines). It
	// controls how many TLB-hitting references separate walks, and therefore
	// how much co-runner traffic each walk must survive under colocation.
	LinesPerVisit float64
	// DataStallCycles models the average non-translation stall per memory
	// reference (cache misses on data, instruction supply), used by the
	// execution-time model of Fig 2/Table 6 in place of hardware counters.
	// sim.Validate bounds it by sim.MaxDataStallCycles, since it also paces
	// co-runner traffic.
	DataStallCycles float64

	// Contig8 is the probability that an aligned 8-page virtual group is
	// backed by one aligned 8-frame physical cluster — the contiguity the
	// Clustered TLB of §5.4.1 exploits. Small, lightly fragmented datasets
	// (mcf, canneal) enjoy high contiguity; huge long-lived heaps do not.
	Contig8 float64

	// MeanPTRun and DataPerPTNode drive the buddy placement model for
	// Table 2's "contiguous physical regions" statistic.
	MeanPTRun     float64
	DataPerPTNode int

	// InstrPerRef is the number of instructions retired per memory
	// reference, used for MPKI and the execution-time model. sim.Validate
	// bounds it by sim.MaxInstrPerRef.
	InstrPerRef float64
}

// Specs returns the seven workloads of Table 3.
func Specs() []Spec {
	return []Spec{
		{
			Name:            "mcf",
			Description:     "SPEC'06 benchmark (ref input)",
			DatasetBytes:    1700 * mem.MiB,
			SpreadFactor:    3.75,
			TotalVMAs:       16,
			BigVMAs:         1,
			Pattern:         Chase,
			HotFraction:     0.003,
			HotProb:         0.30,
			BurstLen:        6,
			LinesPerVisit:   3,
			DataStallCycles: 35,
			Contig8:         0.75,
			MeanPTRun:       5,
			DataPerPTNode:   1,
			InstrPerRef:     3.5,
		},
		{
			Name:            "canneal",
			Description:     "PARSEC 3.0 benchmark (native input set)",
			DatasetBytes:    1200 * mem.MiB,
			SpreadFactor:    4.7,
			TotalVMAs:       18,
			BigVMAs:         4,
			Pattern:         Uniform,
			HotFraction:     0.004,
			HotProb:         0.45,
			BurstLen:        3,
			LinesPerVisit:   2,
			DataStallCycles: 60,
			Contig8:         0.65,
			MeanPTRun:       5.8,
			DataPerPTNode:   1,
			InstrPerRef:     5,
		},
		{
			Name:            "bfs",
			Description:     "Breadth-first search, 60GB dataset (scaled from Twitter)",
			DatasetBytes:    60 * mem.GiB,
			SpreadFactor:    2.15,
			TotalVMAs:       14,
			BigVMAs:         1,
			Pattern:         GraphScan,
			SeqRatio:        0.55,
			HotFraction:     0.005,
			HotProb:         0.35,
			BurstLen:        2.5,
			LinesPerVisit:   4,
			DataStallCycles: 18,
			Contig8:         0.12,
			MeanPTRun:       15,
			DataPerPTNode:   2,
			InstrPerRef:     4,
		},
		{
			Name:            "pagerank",
			Description:     "PageRank, 60GB dataset (scaled from Twitter)",
			DatasetBytes:    60 * mem.GiB,
			SpreadFactor:    1.25,
			TotalVMAs:       18,
			BigVMAs:         1,
			Pattern:         GraphScan,
			SeqRatio:        0.62,
			HotFraction:     0.005,
			HotProb:         0.40,
			BurstLen:        3,
			LinesPerVisit:   4,
			DataStallCycles: 25,
			Contig8:         0.20,
			MeanPTRun:       18,
			DataPerPTNode:   2,
			InstrPerRef:     4,
		},
		{
			Name:            "mc80",
			Description:     "Memcached, in-memory key-value cache, 80GB dataset",
			DatasetBytes:    80 * mem.GiB,
			SpreadFactor:    1.12,
			TotalVMAs:       26,
			BigVMAs:         6,
			Pattern:         Zipf,
			ZipfTheta:       0.99,
			HotFraction:     0.008,
			HotProb:         0.78,
			BurstLen:        1,
			LinesPerVisit:   16,
			DataStallCycles: 45,
			Contig8:         0.05,
			MeanPTRun:       23,
			DataPerPTNode:   3,
			InstrPerRef:     8,
		},
		{
			Name:            "mc400",
			Description:     "Memcached, in-memory key-value cache, 400GB dataset",
			DatasetBytes:    400 * mem.GiB,
			SpreadFactor:    1.04,
			TotalVMAs:       33,
			BigVMAs:         13,
			Pattern:         Zipf,
			ZipfTheta:       0.99,
			HotFraction:     0.002,
			HotProb:         0.73,
			BurstLen:        1,
			LinesPerVisit:   16,
			DataStallCycles: 45,
			Contig8:         0.08,
			MeanPTRun:       40,
			DataPerPTNode:   3,
			InstrPerRef:     8,
		},
		{
			Name:            "redis",
			Description:     "In-memory key-value store (50GB YCSB dataset)",
			DatasetBytes:    50 * mem.GiB,
			SpreadFactor:    1.72,
			TotalVMAs:       7,
			BigVMAs:         1,
			Pattern:         Zipf,
			ZipfTheta:       0.86,
			HotFraction:     0.01,
			HotProb:         0.30,
			BurstLen:        1.3,
			LinesPerVisit:   12,
			DataStallCycles: 260,
			Contig8:         0.15,
			MeanPTRun:       12,
			DataPerPTNode:   2,
			InstrPerRef:     9,
		},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns all workload names in Table 3 order.
func Names() []string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
