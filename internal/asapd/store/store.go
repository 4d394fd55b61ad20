// Package store is the crash-safe persistent result store behind asapd: the
// runner's in-memory memo cache moved to disk, content-addressed by the
// existing (Scenario, Params) cell identity, so identical cells are never
// re-simulated across processes or restarts.
//
// Crash safety rests on three mechanisms:
//
//   - Atomic writes. An entry is written to a temp file in the store
//     directory, fsynced, and renamed into place. Readers only ever see no
//     file or a complete rename; a crash mid-write leaves a temp file the
//     next Open sweeps away.
//   - Self-verifying reads. Every entry carries framing, a payload digest
//     and the full cell key (see entry.go). A torn write — rename durable,
//     data blocks lost — fails verification on the next read.
//   - Quarantine, never deletion of evidence. A corrupt entry is moved to
//     quarantine/ (so a recurring corruption source stays diagnosable) and
//     the cell reports a miss: the caller re-simulates and overwrites. A
//     corrupt result is never served.
//
// The filesystem is injected (internal/asapd/faultfs), so the tests in this
// package prove each property under deterministic fault schedules instead of
// hoping.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/asapd/faultfs"
	"repro/internal/sim"
)

// Stats counts store outcomes since Open.
type Stats struct {
	Hits        uint64 `json:"hits"`         // results served from disk
	Misses      uint64 `json:"misses"`       // absent entries
	Corrupt     uint64 `json:"corrupt"`      // entries quarantined on read
	Writes      uint64 `json:"writes"`       // entries persisted
	WriteErrors uint64 `json:"write_errors"` // failed persists (the result was still returned to the caller)
	Recovered   uint64 `json:"recovered"`    // orphaned temp files swept by Open
}

// Store is a directory of result entries. It is safe for concurrent use.
type Store struct {
	dir string
	fs  faultfs.FS

	tmpSeq atomic.Uint64

	mu    sync.Mutex
	stats Stats
}

// Open prepares dir (and its quarantine/ subdirectory) and sweeps orphaned
// temp files left by a crash mid-write — they were never renamed into place,
// so no reader ever observed them. fsys nil selects the real filesystem.
func Open(dir string, fsys faultfs.FS) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, fs: fsys}
	orphans, err := fsys.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		return nil, fmt.Errorf("store: recovery sweep: %w", err)
	}
	for _, o := range orphans {
		// Best effort: a sweep failure leaves a harmless temp file (never
		// read, overwritten namespace-wise by the next write's fresh suffix).
		if s.fs.Remove(o) == nil {
			s.stats.Recovered++
		}
	}
	return s, nil
}

// path returns the entry file for a cell.
func (s *Store) path(key sim.CellKey) string {
	return filepath.Join(s.dir, KeyDigest(key)+".res")
}

// Get returns the stored result for key, or ok=false on a miss. A corrupt
// entry is quarantined and reported as a miss — the caller re-simulates and
// the next Put replaces the entry.
func (s *Store) Get(key sim.CellKey) (*sim.Result, bool) {
	data, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, os.ErrNotExist) {
			// An unreadable entry (injected read fault, permission damage) is
			// indistinguishable from corruption for serving purposes; count
			// it and miss, but leave the file for quarantine on a later read.
			s.count(func(st *Stats) { st.Corrupt++ })
			return nil, false
		}
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	res, err := Decode(data, key)
	if err != nil {
		s.quarantine(key)
		s.count(func(st *Stats) { st.Corrupt++ })
		return nil, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return res, true
}

// Put persists the result for key with an atomic temp-file+rename write. On
// error the entry is untouched (readers keep seeing the previous state) and
// the temp file is removed best-effort.
func (s *Store) Put(key sim.CellKey, res *sim.Result) error {
	data, err := Encode(key, res)
	if err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		return err
	}
	final := s.path(key)
	tmp := fmt.Sprintf("%s.tmp-%d-%d", final, os.Getpid(), s.tmpSeq.Add(1))
	if err := s.writeAtomic(tmp, final, data); err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		return fmt.Errorf("store: put %s: %w", KeyDigest(key), err)
	}
	s.count(func(st *Stats) { st.Writes++ })
	return nil
}

func (s *Store) writeAtomic(tmp, final string, data []byte) error {
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		s.discard(tmp)
		return err
	}
	// fsync before rename: otherwise the rename can become durable before
	// the data, and a crash manufactures exactly the torn entry the digest
	// check exists to catch. The check is the backstop, not the plan.
	if err := f.Sync(); err != nil {
		f.Close()
		s.discard(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.discard(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.discard(tmp)
		return err
	}
	return nil
}

// discard best-effort removes a failed write's temp file; Open's recovery
// sweep handles whatever survives a crash.
func (s *Store) discard(tmp string) { _ = s.fs.Remove(tmp) }

// quarantine moves a corrupt entry out of the serving namespace, keeping the
// bytes for diagnosis. A unique suffix preserves repeated corruptions of the
// same cell.
func (s *Store) quarantine(key sim.CellKey) {
	name := KeyDigest(key)
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s.res.%d-%d", name, os.Getpid(), s.tmpSeq.Add(1)))
	if err := s.fs.Rename(s.path(key), dst); err != nil {
		// Rename failed (injected fault, cross-device dir): fall back to
		// removal so the corrupt entry can at least never be read again.
		_ = s.fs.Remove(s.path(key))
	}
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
