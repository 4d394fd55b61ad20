package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

func testHeader(t *testing.T) Header {
	t.Helper()
	spec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	layout, err := workload.BuildLayout(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Header{Spec: spec, Seed: 42, Areas: layout.Areas()}
}

// randomStream draws addresses the way a workload would: page-local lines,
// neighbouring pages, and far jumps, so deltas of every magnitude (and both
// signs) are exercised.
func randomStream(r *rand.Rand, n int) []mem.VirtAddr {
	out := make([]mem.VirtAddr, n)
	va := mem.VirtAddr(0x10000000000)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			va = mem.FromVPN(va.VPN()) + mem.VirtAddr(r.Intn(mem.PageSize/mem.LineBytes)*mem.LineBytes)
		case 1:
			va += mem.VirtAddr(mem.PageSize * (1 + r.Intn(4)))
		case 2:
			if va > mem.VirtAddr(64*mem.PageSize) {
				va -= mem.VirtAddr(mem.PageSize * (1 + r.Intn(32)))
			}
		default:
			va = mem.VirtAddr(uint64(r.Int63n(1 << 47)))
		}
		out[i] = va
	}
	return out
}

// TestRoundTripProperty is the encode→decode property test: over randomized
// streams and both framings, a written trace loads back with an identical
// header, count and reference sequence, and raw and gzip framings of the same
// stream share a content digest.
func TestRoundTripProperty(t *testing.T) {
	h := testHeader(t)
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		refs := randomStream(r, r.Intn(5000))
		var digests []string
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, h, compress)
			if err != nil {
				t.Fatal(err)
			}
			for _, va := range refs {
				if err := w.Add(va); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tr, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("round %d compress=%v: %v", round, compress, err)
			}
			if tr.Count != uint64(len(refs)) {
				t.Fatalf("count %d, want %d", tr.Count, len(refs))
			}
			if !reflect.DeepEqual(tr.Header, h) {
				t.Fatalf("header drifted:\ngot  %+v\nwant %+v", tr.Header, h)
			}
			if tr.Digest != w.Digest() {
				t.Fatalf("digest mismatch: load %s, writer %s", tr.Digest, w.Digest())
			}
			rep := tr.Replay()
			for i, want := range refs {
				got, ok := rep.Next()
				if !ok || got != want {
					t.Fatalf("ref %d: got %#x ok=%v, want %#x", i, uint64(got), ok, uint64(want))
				}
			}
			if _, ok := rep.Next(); ok {
				t.Fatal("replayer did not end")
			}
			digests = append(digests, tr.Digest)
		}
		if digests[0] != digests[1] {
			t.Fatalf("raw %s and gzip %s digests differ for identical content", digests[0], digests[1])
		}
	}
}

// TestLayoutRoundTrip locks the layout reconstruction the replay path relies
// on: Areas() → LayoutFromAreas reproduces BuildLayout's result exactly.
func TestLayoutRoundTrip(t *testing.T) {
	for _, spec := range workload.Specs() {
		built, err := workload.BuildLayout(spec)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := workload.LayoutFromAreas(built.Areas())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(built, rebuilt) {
			t.Fatalf("%s layout did not round-trip", spec.Name)
		}
	}
}

// TestLayoutRejectsAbsurdAreas guards the untrusted-header path: spans that
// would wrap the address space or exceed the 48-bit cap must be rejected
// before replay assembly can iterate over them.
func TestLayoutRejectsAbsurdAreas(t *testing.T) {
	base := workload.AreaSpec{Start: mem.FromVPN(1 << 20), Kind: 0, Big: true, Name: "evil"}
	for _, tc := range []struct {
		name            string
		pages, resident uint64
	}{
		{"wrapping span", uint64(1)<<52 + 1, uint64(1) << 52},
		{"beyond cap", uint64(1) << 40, 1},
		{"resident beyond span", 8, 9},
		{"empty", 0, 0},
	} {
		a := base
		a.Pages, a.Resident = tc.pages, tc.resident
		if _, err := workload.LayoutFromAreas([]workload.AreaSpec{a}); err == nil {
			t.Fatalf("%s accepted (pages=%d resident=%d)", tc.name, tc.pages, tc.resident)
		}
	}
}

// TestTruncatedAndCorrupt locks clean failure on damaged files.
func TestTruncatedAndCorrupt(t *testing.T) {
	h := testHeader(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range randomStream(rand.New(rand.NewSource(3)), 100) {
		w.Add(va)
	}
	w.Close()
	full := buf.Bytes()

	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// A bad magic quotes none of the file's bytes back.
	if _, err := Load(bytes.NewReader([]byte("NOTATRACE!"))); err == nil || strings.Contains(err.Error(), "NOTAT") {
		t.Fatalf("bad magic: %v", err)
	}
	bad := append([]byte{}, full...)
	bad[len(magic)] = 99 // future version
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("future version accepted")
	}
	// A trace cut mid-header must error; one cut mid-stream may error on the
	// torn last varint but must never panic or succeed with a torn record.
	for cut := len(magic) + 2; cut < len(full); cut += 37 {
		tr, err := Load(bytes.NewReader(full[:cut]))
		if err == nil && tr.Count == 100 {
			t.Fatalf("cut at %d decoded the full stream", cut)
		}
	}
}

// TestInfoSummary checks footprint and reuse distances on a hand-built
// stream: pages A B A C B A → unique 3, colds 3, distances: A after B → 1,
// B after {A,C} → 2, A after {C,B} → 2.
func TestInfoSummary(t *testing.T) {
	h := testHeader(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h, false)
	if err != nil {
		t.Fatal(err)
	}
	page := func(i uint64) mem.VirtAddr { return mem.FromVPN(0x1000 + i) }
	for _, p := range []uint64{0, 1, 0, 2, 1, 0} {
		w.Add(page(p))
	}
	w.Close()
	tr, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	info := tr.Info()
	if info.Count != 6 || info.UniquePages != 3 || info.ColdRefs != 3 {
		t.Fatalf("info: %+v", info)
	}
	// Distances sorted: [1 2 2] → p50 = 2 (index 1), p90 = 2 (index 2).
	if info.ReuseP50 != 2 || info.ReuseP90 != 2 {
		t.Fatalf("reuse distances: %+v", info)
	}
}
