package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/asapd/faultfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testCell returns a small real simulation cell: the store's contract is
// byte-level fidelity for genuine results, so the tests round-trip the real
// thing rather than a hand-rolled struct.
func testCell(t *testing.T) sim.CellKey {
	t.Helper()
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("missing workload mcf")
	}
	p := sim.DefaultParams()
	p.WarmupWalks = 300
	p.MeasureWalks = 200
	return sim.Key(sim.Scenario{Workload: w}, p)
}

func simulate(t *testing.T, key sim.CellKey) *sim.Result {
	t.Helper()
	res, err := sim.Run(context.Background(), key.Scenario, key.Params, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func openStore(t *testing.T, dir string, fsys faultfs.FS) *Store {
	t.Helper()
	s, err := Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	key := testCell(t)
	res := simulate(t, key)

	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("stored result differs:\ngot  %+v\nwant %+v", got, res)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSurvivesRestart is the cross-process contract: a second Store over the
// same directory serves the first one's results.
func TestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	key := testCell(t)
	res := simulate(t, key)

	s1 := openStore(t, dir, nil)
	if err := s1.Put(key, res); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, nil)
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("restarted store missed a persisted entry")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("restarted store returned a different result")
	}
}

// TestRecoverySweep checks that Open deletes temp files a crash mid-write
// left behind, and only those.
func TestRecoverySweep(t *testing.T) {
	dir := t.TempDir()
	key := testCell(t)
	res := simulate(t, key)
	s1 := openStore(t, dir, nil)
	if err := s1.Put(key, res); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, KeyDigest(key)+".res.tmp-999-7")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, nil)
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan temp file survived recovery: %v", err)
	}
	if s2.Stats().Recovered != 1 {
		t.Fatalf("recovered = %d, want 1", s2.Stats().Recovered)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("recovery sweep destroyed a live entry")
	}
}

// TestTornWriteCrashSafety is the headline crash-safety proof: the store is
// killed mid-write by a torn-write fault (the write reports success but only
// a prefix reaches "disk", then the process is gone — rename durable, data
// lost), a fresh store over the same directory must never serve the corrupt
// entry, the entry must land in quarantine, and re-simulating the cell must
// reproduce a byte-identical record.
func TestTornWriteCrashSafety(t *testing.T) {
	dir := t.TempDir()
	key := testCell(t)
	res := simulate(t, key)
	reference, err := Encode(key, res)
	if err != nil {
		t.Fatal(err)
	}

	for _, keep := range []int{0, 11, 40, len(reference) - 1} {
		faulty := faultfs.Wrap(faultfs.OS())
		s1 := openStore(t, dir, faulty)
		faulty.Arm(faultfs.Fault{Op: faultfs.OpWrite, N: 1, Torn: true, KeepBytes: keep})
		if err := s1.Put(key, res); err != nil {
			t.Fatalf("keep=%d: a torn write is silent by definition, got %v", keep, err)
		}
		// s1 "crashes" here; s2 is the restarted process.
		s2 := openStore(t, dir, nil)
		if _, ok := s2.Get(key); ok {
			t.Fatalf("keep=%d: torn entry was served", keep)
		}
		if st := s2.Stats(); st.Corrupt != 1 {
			t.Fatalf("keep=%d: stats = %+v, want 1 corrupt", keep, st)
		}
		q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
		if err != nil || len(q) == 0 {
			t.Fatalf("keep=%d: torn entry not quarantined (%v, %v)", keep, q, err)
		}
		for _, f := range q {
			os.Remove(f) // reset for the next keep
		}

		// Recovery: re-simulate and persist; the record must be byte-identical
		// to the pre-crash reference.
		res2 := simulate(t, key)
		if err := s2.Put(key, res2); err != nil {
			t.Fatal(err)
		}
		entry, err := os.ReadFile(filepath.Join(dir, KeyDigest(key)+".res"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(entry, reference) {
			t.Fatalf("keep=%d: re-simulated entry differs from the pre-crash bytes", keep)
		}
		got, ok := s2.Get(key)
		if !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("keep=%d: recovered result differs", keep)
		}
	}
}

// TestFailedWriteLeavesOldEntry checks atomic replacement: when any step of
// a re-Put fails (write, fsync, rename), readers keep seeing the previous
// complete entry.
func TestFailedWriteLeavesOldEntry(t *testing.T) {
	key := testCell(t)
	res := simulate(t, key)
	for _, fault := range []faultfs.Fault{
		{Op: faultfs.OpWrite, N: 1},
		{Op: faultfs.OpSync, N: 1},
		{Op: faultfs.OpRename, N: 1},
	} {
		dir := t.TempDir()
		s := openStore(t, dir, nil)
		if err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
		faulty := faultfs.Wrap(faultfs.OS())
		s2 := openStore(t, dir, faulty)
		faulty.Arm(fault)
		if err := s2.Put(key, res); err == nil {
			t.Fatalf("fault %v: Put succeeded", fault.Op)
		}
		if st := s2.Stats(); st.WriteErrors != 1 {
			t.Fatalf("fault %v: stats = %+v, want 1 write error", fault.Op, st)
		}
		got, ok := s2.Get(key)
		if !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("fault %v: previous entry lost", fault.Op)
		}
		// No temp litter: the failed write discarded its file.
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
		if len(tmps) != 0 {
			t.Fatalf("fault %v: temp litter %v", fault.Op, tmps)
		}
	}
}

// TestWrongKeyEntryNotServed plants a structurally valid entry under the
// wrong cell's filename: identity verification must reject it.
func TestWrongKeyEntryNotServed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	key := testCell(t)
	res := simulate(t, key)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}

	other := key
	other.Params.Seed ^= 0xbeef
	valid, err := os.ReadFile(filepath.Join(dir, KeyDigest(key)+".res"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, KeyDigest(other)+".res"), valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(other); ok {
		t.Fatal("entry with mismatched identity was served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}
}

// TestBitFlipQuarantined flips one bit at several offsets across an entry;
// every flip must read as corrupt, never as a (subtly different) result.
func TestBitFlipQuarantined(t *testing.T) {
	key := testCell(t)
	res := simulate(t, key)
	valid, err := Encode(key, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, 9, len(valid) / 2, len(valid) - 3} {
		dir := t.TempDir()
		s := openStore(t, dir, nil)
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x10
		if err := os.WriteFile(filepath.Join(dir, KeyDigest(key)+".res"), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("bit flip at %d served a result", off)
		}
		q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
		if len(q) != 1 {
			t.Fatalf("bit flip at %d: quarantine holds %v", off, q)
		}
	}
}

func TestDistinctCellsDistinctEntries(t *testing.T) {
	key := testCell(t)
	other := key
	other.Scenario.Colocated = true
	if KeyDigest(key) == KeyDigest(other) {
		t.Fatal("distinct cells share a digest")
	}
	if CanonicalKey(key) == CanonicalKey(other) {
		t.Fatal("distinct cells share a canonical key")
	}
}
