package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rng"
)

// streamLen is the length of the pre-generated hit and walk key streams;
// benchmarks cycle through a stream so generating keys stays out of the
// timed loop. Miss streams may be longer (missStreamLen).
const streamLen = 1 << 16

// coLines is the co-runner's footprint in cache lines: 16 GiB, as the
// simulator's SMT co-runner spans.
const coLines = 16 << 30 / mem.LineBytes

var sinkBool bool

// keyStream draws n keys uniformly from [0, space). n is a power of two, so
// a benchmark can cycle through the stream with a mask.
func keyStream(n int, space, seed uint64) []uint64 {
	r := rng.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64n(space)
	}
	return keys
}

// missStreamLen is the length of a miss stream for an array of the given
// capacity: at least four times its entries, so that by the time a cycling
// benchmark comes back to a key, the key's set has taken several times its
// ways in other keys and evicted it. A 65,536-key stream is about 4 lines
// per set of the 16384-set LLC and would hit there on every access.
func missStreamLen(entries int) int {
	n := streamLen
	for n < 4*entries {
		n *= 2
	}
	return n
}

// llcLines is the default LLC's capacity in lines.
var llcLines = DefaultConfig().L3.SizeBytes / mem.LineBytes

// setAssocGeometry is one array shape of BenchmarkSetAssocLookupInsert.
// tags32 selects the LLC's own array: 32-bit tags above the set index, as a
// Hierarchy builds it.
type setAssocGeometry struct {
	name          string
	entries, ways int
	tags32        bool
}

// newArray returns an empty array of shape g.
func (g setAssocGeometry) newArray() lruOps {
	if g.tags32 {
		return newLLCArray(g.entries, g.ways)
	}
	return NewSetAssoc(g.entries, g.ways)
}

var setAssocGeometries = []setAssocGeometry{
	{"l1", 512, 8, false},
	{"l2", 4096, 8, false},
	{"llc", llcLines, 20, false},
	{"llc32", llcLines, 20, true},
	{"pwc_fa", 32, 32, false},
}

// keyStreamCase is one named key stream of a benchmark.
type keyStreamCase struct {
	name string
	keys []uint64
}

// setAssocStreams returns g's two streams. hit: the array's first entries/2
// keys, ways/2 per set, so after warm-up every access hits, at every depth of
// the set's upper half. miss: co-runner lines, so every access misses and
// evicts.
func setAssocStreams(g setAssocGeometry) []keyStreamCase {
	return []keyStreamCase{
		{"hit", keyStream(streamLen, uint64(g.entries/2), 1)},
		{"miss", keyStream(missStreamLen(g.entries), coLines, 2)},
	}
}

func BenchmarkSetAssocLookupInsert(b *testing.B) {
	for _, g := range setAssocGeometries {
		for _, st := range setAssocStreams(g) {
			b.Run(g.name+"/"+st.name, func(b *testing.B) {
				benchLookupInsert(b, g.newArray(), st.keys)
			})
		}
	}
}

// warmLookupInsert runs LookupInsert over keys once, as every benchmark does
// before timing.
func warmLookupInsert(s lruOps, keys []uint64) {
	for _, k := range keys {
		s.LookupInsert(k)
	}
}

// benchLookupInsert warms s with keys, then times LookupInsert cycling
// through them.
func benchLookupInsert(b *testing.B, s lruOps, keys []uint64) {
	warmLookupInsert(s, keys)
	mask := len(keys) - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = s.LookupInsert(keys[i&mask])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// hierarchyStream is one stream of BenchmarkHierarchyAccess; burst > 0
// issues it through AccessAll, burst addresses at a time.
type hierarchyStream struct {
	name  string
	lines []uint64
	burst int
}

// hierarchyStreams returns BenchmarkHierarchyAccess's streams. walk_hit:
// lines of a 128 KB page-table region, which fits L2 but not L1, so accesses
// are served by L1 and L2 as a warm walker's are. corunner_miss: co-runner
// lines, which miss all three levels. corunner_burst1, corunner_burst and
// corunner_burst64: the same lines through AccessAll, 1, 16 and 64 at a
// time. The simulator's SMT co-runner issues bursts of 9 lines on average,
// a sixth of them of 2 or fewer, and its quantum replay bursts of 62.
func hierarchyStreams() []hierarchyStream {
	co := keyStream(missStreamLen(llcLines), coLines, 4)
	return []hierarchyStream{
		{"walk_hit", keyStream(streamLen, 128<<10/mem.LineBytes, 3), 0},
		{"corunner_miss", co, 0},
		{"corunner_burst1", co, 1},
		{"corunner_burst", co, 16},
		{"corunner_burst64", co, 64},
	}
}

// warmHierarchy returns a default Hierarchy that has accessed every line of
// st once, and st's lines as addresses.
func warmHierarchy(st hierarchyStream) (*Hierarchy, []mem.PhysAddr) {
	h := NewHierarchy(DefaultConfig())
	addrs := make([]mem.PhysAddr, len(st.lines))
	for i, l := range st.lines {
		addrs[i] = mem.PhysAddr(l << mem.LineShift)
		h.Access(addrs[i])
	}
	return h, addrs
}

// runHierarchy issues n accesses of st, cycling through addrs from the start.
// A burst stream rounds n up to whole bursts and returns the count issued.
func runHierarchy(h *Hierarchy, st hierarchyStream, addrs []mem.PhysAddr, n int) int {
	mask := len(addrs) - 1
	if st.burst > 0 {
		n = (n + st.burst - 1) / st.burst * st.burst
		for i := 0; i < n; i += st.burst {
			off := i & mask
			h.AccessAll(addrs[off : off+st.burst])
		}
		return n
	}
	var served ServedBy
	for i := 0; i < n; i++ {
		served, _ = h.Access(addrs[i&mask])
	}
	sinkBool = served == ServedMem
	return n
}

func BenchmarkHierarchyAccess(b *testing.B) {
	for _, st := range hierarchyStreams() {
		b.Run(st.name, func(b *testing.B) {
			h, addrs := warmHierarchy(st)
			b.ResetTimer()
			n := runHierarchy(h, st, addrs, b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
		})
	}
}

// TestBenchStreamOutcomes pins what the micro-benchmarks time: over one
// cycle of each stream after its warm-up, a hit stream hits on every access
// and a miss stream on under 1% of them, at the array or levels it is named
// for.
func TestBenchStreamOutcomes(t *testing.T) {
	for _, g := range setAssocGeometries {
		for _, st := range setAssocStreams(g) {
			hits := countLookupInsertHits(g.newArray(), st.keys)
			checkStreamOutcome(t, "SetAssocLookupInsert/"+g.name+"/"+st.name, st.name == "hit", hits, len(st.keys))
		}
	}
	for _, st := range hierarchyStreams() {
		h, addrs := warmHierarchy(st)
		var before [NumServedBy]uint64
		for s := range before {
			before[s] = h.ServedCount(ServedBy(s))
		}
		n := runHierarchy(h, st, addrs, len(addrs))
		served := func(s ServedBy) int { return int(h.ServedCount(s) - before[s]) }
		// walk_hit is named for L1 and L2, the co-runner streams for all
		// three levels.
		hits := served(ServedL1) + served(ServedL2)
		if st.name != "walk_hit" {
			hits += served(ServedL3)
		}
		checkStreamOutcome(t, "HierarchyAccess/"+st.name, st.name == "walk_hit", hits, n)
	}
}

// countLookupInsertHits warms s with keys and returns how many LookupInserts
// of one more pass over keys hit.
func countLookupInsertHits(s lruOps, keys []uint64) int {
	warmLookupInsert(s, keys)
	hits := 0
	for _, k := range keys {
		if s.LookupInsert(k) {
			hits++
		}
	}
	return hits
}

func checkStreamOutcome(t *testing.T, name string, wantHits bool, hits, n int) {
	t.Helper()
	if wantHits && hits != n {
		t.Errorf("%s: %d of %d accesses hit, want all", name, hits, n)
	}
	if !wantHits && hits*100 >= n {
		t.Errorf("%s: %d of %d accesses hit, want under 1%%", name, hits, n)
	}
}
