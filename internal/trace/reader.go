package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"repro/internal/mem"
	"repro/internal/vma"
	"repro/internal/workload"
)

// maxBodyBytes bounds how much uncompressed body Load will hold in memory, so
// a small compressed file cannot make it allocate without limit.
const maxBodyBytes = 1 << 30

func readUvarint(r *bytes.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err == io.EOF {
		// A value cut off mid-file is corruption, not a clean end.
		err = io.ErrUnexpectedEOF
	}
	return v, err
}

func readFloat(r *bytes.Reader) (float64, error) {
	bits, err := readUvarint(r)
	return math.Float64frombits(bits), err
}

func readString(r *bytes.Reader, max int) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", fmt.Errorf("trace: string length %d exceeds cap %d", n, max)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("trace: truncated string: %w", err)
	}
	return string(b), nil
}

func readInt(r *bytes.Reader) (int, error) {
	v, err := readUvarint(r)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("trace: integer field %d out of range", v)
	}
	return int(v), nil
}

// readHeader decodes the header in appendHeader's field order.
func readHeader(r *bytes.Reader) (Header, error) {
	var h Header
	var err error
	s := &h.Spec
	read := func(dst *float64) {
		if err == nil {
			*dst, err = readFloat(r)
		}
	}
	if s.Name, err = readString(r, maxStringLen); err != nil {
		return h, err
	}
	if s.Description, err = readString(r, maxStringLen); err != nil {
		return h, err
	}
	if s.DatasetBytes, err = readUvarint(r); err != nil {
		return h, err
	}
	read(&s.SpreadFactor)
	if err == nil {
		s.TotalVMAs, err = readInt(r)
	}
	if err == nil {
		s.BigVMAs, err = readInt(r)
	}
	if err == nil {
		var p int
		p, err = readInt(r)
		s.Pattern = workload.Pattern(p)
	}
	read(&s.ZipfTheta)
	read(&s.HotFraction)
	read(&s.HotProb)
	read(&s.SeqRatio)
	read(&s.BurstLen)
	read(&s.LinesPerVisit)
	read(&s.DataStallCycles)
	read(&s.Contig8)
	read(&s.MeanPTRun)
	if err == nil {
		s.DataPerPTNode, err = readInt(r)
	}
	read(&s.InstrPerRef)
	if err != nil {
		return h, err
	}
	if h.Seed, err = readUvarint(r); err != nil {
		return h, err
	}
	n, err := readUvarint(r)
	if err != nil {
		return h, err
	}
	if n > maxAreas {
		return h, fmt.Errorf("trace: %d areas exceed the format cap %d", n, maxAreas)
	}
	h.Areas = make([]workload.AreaSpec, 0, n)
	for i := uint64(0); i < n; i++ {
		var a workload.AreaSpec
		vpn, err := readUvarint(r)
		if err != nil {
			return h, err
		}
		if vpn >= uint64(1)<<52 {
			return h, fmt.Errorf("trace: area %d start VPN %#x out of range", i, vpn)
		}
		a.Start = mem.FromVPN(vpn)
		if a.Pages, err = readUvarint(r); err != nil {
			return h, err
		}
		if a.Resident, err = readUvarint(r); err != nil {
			return h, err
		}
		var kind [1]byte
		if _, err := io.ReadFull(r, kind[:]); err != nil {
			return h, fmt.Errorf("trace: truncated area kind: %w", err)
		}
		a.Big = kind[0]&0x80 != 0
		a.Kind = vma.Kind(kind[0] &^ 0x80)
		if a.Name, err = readString(r, maxStringLen); err != nil {
			return h, err
		}
		h.Areas = append(h.Areas, a)
	}
	return h, nil
}

// readPreamble consumes the magic/version/flags preamble and returns the
// body reader (decompressing when the gzip flag is set).
func readPreamble(r io.Reader) (io.Reader, error) {
	pre := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(r, pre); err != nil {
		return nil, fmt.Errorf("trace: truncated preamble: %w", err)
	}
	if string(pre[:len(magic)]) != magic {
		// Quote none of the bytes: a service passes this error to a client
		// that named an arbitrary file.
		return nil, fmt.Errorf("trace: not a trace file (bad magic)")
	}
	if pre[len(magic)] != version {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", pre[len(magic)], version)
	}
	flags := pre[len(magic)+1]
	if flags&^flagGzip != 0 {
		return nil, fmt.Errorf("trace: unknown flags %#x", flags)
	}
	if flags&flagGzip != 0 {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("trace: bad gzip framing: %w", err)
		}
		return gz, nil
	}
	return r, nil
}

// Trace is a fully loaded, validated trace: the header, the content digest,
// the reference count and the compact encoded stream, ready to be replayed
// any number of times (concurrently, if desired — replays share the immutable
// stream bytes).
type Trace struct {
	Header Header
	Digest string // FNV-64a over the uncompressed body, 16 hex digits
	Count  uint64
	stream []byte
}

// Load reads a whole trace, verifying the preamble, header and every stream
// record, and computes the content digest.
func Load(r io.Reader) (*Trace, error) {
	body, err := readPreamble(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("trace: reading body: %w", err)
	}
	if len(raw) > maxBodyBytes {
		return nil, fmt.Errorf("trace: body exceeds %d bytes", maxBodyBytes)
	}
	br := bytes.NewReader(raw)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	stream := raw[len(raw)-br.Len():]
	t := &Trace{Header: h, stream: stream}
	// Validate the stream in one decode pass so Replay never has to fail.
	rep := t.Replay()
	for {
		if _, ok := rep.next(); !ok {
			break
		}
		t.Count++
	}
	if rep.pos != len(stream) {
		return nil, fmt.Errorf("trace: reference %d truncated or malformed", t.Count)
	}
	d := fnv.New64a()
	d.Write(raw)
	t.Digest = fmt.Sprintf("%016x", d.Sum64())
	return t, nil
}

// LoadFile loads the trace at path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Load(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Replay returns a fresh decoder over the trace's reference stream.
func (t *Trace) Replay() *Replayer {
	return &Replayer{b: t.stream}
}

// Replayer decodes a loaded trace's reference stream sequentially. Next
// satisfies the simulator's reference-source contract: ok reports whether a
// reference was produced, and turns false when the trace runs dry.
type Replayer struct {
	b    []byte
	pos  int
	prev uint64
}

// Next returns the next reference in the stream.
func (r *Replayer) Next() (mem.VirtAddr, bool) {
	return r.next()
}

func (r *Replayer) next() (mem.VirtAddr, bool) {
	if r.pos >= len(r.b) {
		return 0, false
	}
	u, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		// Load validated the stream, so this only happens on a hand-built
		// Replayer over corrupt bytes; treat it as end-of-stream.
		r.pos = len(r.b) + 1
		return 0, false
	}
	r.pos += n
	r.prev += uint64(unzigzag(u))
	return mem.VirtAddr(r.prev), true
}
