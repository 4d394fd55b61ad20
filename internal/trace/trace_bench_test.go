package trace

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

var benchSink uint64

// BenchmarkReplayerNext times the decode of one reference of a loaded
// trace: 65,536 references of redis's generator, the workload the
// repository benchmark replays. A replay that runs dry starts over.
func BenchmarkReplayerNext(b *testing.B) {
	spec, ok := workload.ByName("redis")
	if !ok {
		b.Fatal("redis missing")
	}
	layout, err := workload.BuildLayout(spec)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Spec: spec, Seed: 42, Areas: layout.Areas()}, false)
	if err != nil {
		b.Fatal(err)
	}
	g := workload.NewGenerator(spec, layout, 42)
	for i := 0; i < 1<<16; i++ {
		if err := w.Add(g.Next()); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	tr, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	r := tr.Replay()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, ok := r.Next()
		if !ok {
			r = tr.Replay()
			va, _ = r.Next()
		}
		sink += uint64(va)
	}
	benchSink = sink
}
