package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// streamLen is the length of every pre-generated key stream; benchmarks cycle
// through it so generating keys stays out of the timed loop.
const streamLen = 1 << 16

// coLines is the co-runner's footprint in cache lines: 16 GiB, as the
// simulator's SMT co-runner spans.
const coLines = 16 << 30 / mem.LineBytes

var sinkBool bool

// keyStream draws keys uniformly from [0, n).
func keyStream(n uint64, seed uint64) []uint64 {
	r := rng.New(seed)
	keys := make([]uint64, streamLen)
	for i := range keys {
		keys[i] = r.Uint64n(n)
	}
	return keys
}

func BenchmarkSetAssocLookupInsert(b *testing.B) {
	geometries := []struct {
		name          string
		entries, ways int
	}{
		{"l1", 512, 8},
		{"l2", 4096, 8},
		{"llc", 327680, 20},
		{"pwc_fa", 32, 32},
	}
	for _, g := range geometries {
		// hit: the array's first entries/2 keys, ways/2 per set, so after
		// warm-up every access hits, at every depth of the set's upper half.
		// miss: co-runner lines, so almost every access misses and evicts.
		streams := []struct {
			name string
			keys []uint64
		}{
			{"hit", keyStream(uint64(g.entries/2), 1)},
			{"miss", keyStream(coLines, 2)},
		}
		for _, st := range streams {
			b.Run(g.name+"/"+st.name, func(b *testing.B) {
				s := NewSetAssoc(g.entries, g.ways)
				for _, k := range st.keys {
					s.LookupInsert(k)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkBool = s.LookupInsert(st.keys[i&(streamLen-1)])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
			})
		}
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	// walk_hit: lines of a 128 KB page-table region, which fits L2 but not
	// L1, so accesses are served by L1 and L2 as a warm walker's are.
	// corunner_miss: co-runner lines, which miss all three levels.
	streams := []struct {
		name  string
		lines []uint64
	}{
		{"walk_hit", keyStream(128<<10/mem.LineBytes, 3)},
		{"corunner_miss", keyStream(coLines, 4)},
	}
	for _, st := range streams {
		b.Run(st.name, func(b *testing.B) {
			h := NewHierarchy(DefaultConfig())
			addrs := make([]mem.PhysAddr, len(st.lines))
			for i, l := range st.lines {
				addrs[i] = mem.PhysAddr(l << mem.LineShift)
				h.Access(addrs[i])
			}
			mask := len(addrs) - 1
			var served ServedBy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				served, _ = h.Access(addrs[i&mask])
			}
			sinkBool = served == ServedMem
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
		})
	}
}
