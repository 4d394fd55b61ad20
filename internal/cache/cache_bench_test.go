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
	// llc32 is the LLC's own array: the llc geometry with 32-bit tags above
	// the set index, as a Hierarchy builds it.
	geometries := []struct {
		name          string
		entries, ways int
		tags32        bool
	}{
		{"l1", 512, 8, false},
		{"l2", 4096, 8, false},
		{"llc", 327680, 20, false},
		{"llc32", 327680, 20, true},
		{"pwc_fa", 32, 32, false},
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
				if g.tags32 {
					benchLookupInsert(b, newLLCArray(g.entries, g.ways), st.keys)
				} else {
					benchLookupInsert(b, &NewSetAssoc(g.entries, g.ways).lruArray, st.keys)
				}
			})
		}
	}
}

// benchLookupInsert warms s with keys, then times LookupInsert cycling
// through them.
func benchLookupInsert[T tag](b *testing.B, s *lruArray[T], keys []uint64) {
	for _, k := range keys {
		s.LookupInsert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = s.LookupInsert(keys[i&(streamLen-1)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

func BenchmarkHierarchyAccess(b *testing.B) {
	// walk_hit: lines of a 128 KB page-table region, which fits L2 but not
	// L1, so accesses are served by L1 and L2 as a warm walker's are.
	// corunner_miss: co-runner lines, which miss all three levels.
	// corunner_burst: the same lines through AccessAll, 16 at a time, as the
	// simulator issues co-runner traffic.
	streams := []struct {
		name  string
		lines []uint64
		burst int
	}{
		{"walk_hit", keyStream(128<<10/mem.LineBytes, 3), 0},
		{"corunner_miss", keyStream(coLines, 4), 0},
		{"corunner_burst", keyStream(coLines, 4), 16},
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
			n := b.N
			b.ResetTimer()
			if st.burst > 0 {
				n = (b.N + st.burst - 1) / st.burst * st.burst
				for i := 0; i < n; i += st.burst {
					off := i & mask
					h.AccessAll(addrs[off : off+st.burst])
				}
			} else {
				var served ServedBy
				for i := 0; i < n; i++ {
					served, _ = h.Access(addrs[i&mask])
				}
				sinkBool = served == ServedMem
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
		})
	}
}
