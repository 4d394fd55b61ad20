// Package trace implements the simulator's binary reference-trace format.
//
// The source paper drove its evaluation with memory traces and page-table
// dumps captured from real applications; this repository substitutes
// synthetic generators. A trace file closes that gap: it freezes one
// process's virtual-address reference stream together with everything needed
// to rebuild the process image it ran against — the workload spec (timing
// model and identity) and the explicit VMA layout — so any reference stream,
// recorded synthetic, hand-built, or converted from an external tool, becomes
// a runnable scenario.
//
// # Format
//
// A trace file is a fixed preamble followed by a body that is optionally
// gzip-framed:
//
//	magic    [7]byte  "ASAPTRC"
//	version  byte     1
//	flags    byte     bit 0: body is gzip-compressed
//	body     header, then the reference stream
//
// All body integers are unsigned varints (encoding/binary); floats are their
// IEEE-754 bit patterns as varints; strings are a varint length followed by
// raw bytes. The header is the workload spec field by field, the capture's
// generator seed, and the VMA area table (per area: start VPN, span pages,
// resident pages, a kind byte whose high bit marks dataset areas, name). The
// reference stream is one varint per reference: the zigzag-encoded signed
// delta from the previous virtual address (the first delta is from address
// zero). Delta-plus-varint keeps sequential and strided phases near one byte
// per reference; gzip framing compresses the rest.
//
// The content digest is FNV-64a over the uncompressed body, so a raw and a
// gzip framing of the same capture share a digest — the digest identifies the
// trace's content, which is what memoization and report records key on.
//
// Writer streams with O(1) memory; Load keeps the compact encoded stream in
// memory so a simulation (or several, concurrently) can replay it without
// touching the file again.
package trace

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/mem"
	"repro/internal/workload"
)

// Format constants.
const (
	magic    = "ASAPTRC"
	version  = 1
	flagGzip = 1 << 0
)

// Decode limits: a well-formed header is tiny, so these caps only bound what
// a malformed or hostile file can make the decoder allocate.
const (
	maxStringLen = 4096
	maxAreas     = 1 << 16
)

// Header carries everything a replay needs to reconstruct the originating
// process: the workload spec (identity plus the timing model the simulator
// charges per reference), the generator seed the capture ran with, and the
// explicit VMA layout.
type Header struct {
	Spec  workload.Spec
	Seed  uint64
	Areas []workload.AreaSpec
}

// appendUvarint and friends build the body encoding.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendFloat(b []byte, f float64) []byte {
	return appendUvarint(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// zigzag maps signed deltas onto small varints regardless of direction.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendHeader encodes h. The field order here is the format; readHeader
// mirrors it exactly.
func appendHeader(b []byte, h Header) ([]byte, error) {
	if len(h.Spec.Name) > maxStringLen || len(h.Spec.Description) > maxStringLen {
		return nil, fmt.Errorf("trace: spec strings exceed %d bytes", maxStringLen)
	}
	if len(h.Areas) > maxAreas {
		return nil, fmt.Errorf("trace: %d areas exceed the format cap %d", len(h.Areas), maxAreas)
	}
	s := h.Spec
	b = appendString(b, s.Name)
	b = appendString(b, s.Description)
	b = appendUvarint(b, s.DatasetBytes)
	b = appendFloat(b, s.SpreadFactor)
	b = appendUvarint(b, uint64(s.TotalVMAs))
	b = appendUvarint(b, uint64(s.BigVMAs))
	b = appendUvarint(b, uint64(s.Pattern))
	b = appendFloat(b, s.ZipfTheta)
	b = appendFloat(b, s.HotFraction)
	b = appendFloat(b, s.HotProb)
	b = appendFloat(b, s.SeqRatio)
	b = appendFloat(b, s.BurstLen)
	b = appendFloat(b, s.LinesPerVisit)
	b = appendFloat(b, s.DataStallCycles)
	b = appendFloat(b, s.Contig8)
	b = appendFloat(b, s.MeanPTRun)
	b = appendUvarint(b, uint64(s.DataPerPTNode))
	b = appendFloat(b, s.InstrPerRef)
	b = appendUvarint(b, h.Seed)
	b = appendUvarint(b, uint64(len(h.Areas)))
	for _, a := range h.Areas {
		if a.Start.PageOffset() != 0 {
			return nil, fmt.Errorf("trace: area %q start %#x not page aligned", a.Name, uint64(a.Start))
		}
		if len(a.Name) > maxStringLen {
			return nil, fmt.Errorf("trace: area name exceeds %d bytes", maxStringLen)
		}
		b = appendUvarint(b, a.Start.VPN())
		b = appendUvarint(b, a.Pages)
		b = appendUvarint(b, a.Resident)
		kind := byte(a.Kind)
		if kind >= 0x80 {
			return nil, fmt.Errorf("trace: area kind %d not encodable", a.Kind)
		}
		if a.Big {
			kind |= 0x80
		}
		b = append(b, kind)
		b = appendString(b, a.Name)
	}
	return b, nil
}

// Writer streams one reference trace to an io.Writer with O(1) memory,
// hashing the uncompressed body as it goes.
type Writer struct {
	out    io.Writer // body sink: the gzip framer or the raw destination
	gz     *gzip.Writer
	digest hash.Hash64
	buf    []byte
	prev   uint64
	count  uint64
	err    error
}

// NewWriter writes the preamble and header for h to w and returns a Writer
// accepting the reference stream. With compress set the body is gzip-framed.
// Close flushes the framing but does not close w.
func NewWriter(w io.Writer, h Header, compress bool) (*Writer, error) {
	pre := make([]byte, 0, len(magic)+2)
	pre = append(pre, magic...)
	pre = append(pre, version)
	var flags byte
	if compress {
		flags |= flagGzip
	}
	pre = append(pre, flags)
	if _, err := w.Write(pre); err != nil {
		return nil, err
	}
	tw := &Writer{out: w, digest: fnv.New64a()}
	if compress {
		tw.gz = gzip.NewWriter(w)
		tw.out = tw.gz
	}
	hb, err := appendHeader(nil, h)
	if err != nil {
		return nil, err
	}
	if err := tw.write(hb); err != nil {
		return nil, err
	}
	return tw, nil
}

func (w *Writer) write(b []byte) error {
	if w.err != nil {
		return w.err
	}
	w.digest.Write(b)
	if _, err := w.out.Write(b); err != nil {
		w.err = err
	}
	return w.err
}

// Add appends one reference to the stream.
func (w *Writer) Add(va mem.VirtAddr) error {
	w.buf = appendUvarint(w.buf[:0], zigzag(int64(uint64(va)-w.prev)))
	w.prev = uint64(va)
	if err := w.write(w.buf); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of references written so far.
func (w *Writer) Count() uint64 { return w.count }

// Digest returns the content digest of everything written so far; after
// Close it is the trace's digest (and matches what Load computes).
func (w *Writer) Digest() string { return fmt.Sprintf("%016x", w.digest.Sum64()) }

// Close flushes the gzip framing, leaving the underlying writer open.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.gz != nil {
		w.err = w.gz.Close()
	}
	return w.err
}
