package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildRegistry assembles one of every metric shape: plain and labeled
// counters, a gauge, and a two-series histogram.
func buildRegistry() *Registry {
	r := NewRegistry()
	r.Counter("demo_requests_total", "Requests handled.").Add(42)
	r.Counter("demo_errors_total", "Errors by class.", Label{"class", "timeout"}).Add(3)
	r.Counter("demo_errors_total", "Errors by class.", Label{"class", "refused"}).Inc()
	r.Gauge("demo_queue_depth", "Items waiting.").Set(7)
	r.Gauge("demo_load_ratio", "Fractional load.").Set(0.625)
	h := r.Histogram("demo_latency_cycles", "Latency distribution.", []float64{10, 100}, Label{"op", "walk"})
	for _, v := range []float64{5, 50, 500, 7} {
		h.Observe(v)
	}
	r.Histogram("demo_latency_cycles", "Latency distribution.", []float64{10, 100}, Label{"op", "hit"}).Observe(3)
	return r
}

// TestExpositionGolden locks the Prometheus text exposition byte for byte:
// HELP/TYPE ordering, family and series sort order, integer vs float value
// formatting, and cumulative histogram rendering.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildRegistry().WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildRegistry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical registries exposed differently")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "x", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	cum, sum, total := h.snapshot()
	// Bounds are inclusive (le): 0.5 and 1 land in le=1; 1.5 in le=2; 3 in
	// le=4; 100 in +Inf.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (full: %v)", i, cum[i], w, cum)
		}
	}
	if total != 5 || sum != 106 {
		t.Fatalf("total=%d sum=%v", total, sum)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "x")
	r.Gauge("m", "x")
}

// TestBadRegistrationPanics has one row per exposition rule the registry
// enforces when a series is created. Each registration would otherwise
// render a document a Prometheus parser rejects or misreads, so each must
// panic and leave the registry as it was.
func TestBadRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		reg  func(r *Registry)
	}{
		{"metric name starts with a digit", func(r *Registry) { r.Counter("9lives_total", "x") }},
		{"metric name holds a dash", func(r *Registry) { r.Gauge("queue-depth", "x") }},
		{"empty metric name", func(r *Registry) { r.Gauge("", "x") }},
		{"label name holds a colon", func(r *Registry) { r.Counter("c_total", "x", Label{"op:kind", "a"}) }},
		{"label name starts with a digit", func(r *Registry) { r.Counter("c_total", "x", Label{"1op", "a"}) }},
		{"label repeated", func(r *Registry) { r.Gauge("g", "x", Label{"op", "a"}, Label{"op", "b"}) }},
		{"label name starts with __", func(r *Registry) { r.Gauge("g", "x", Label{"__name__", "a"}) }},
		{"le on a histogram", func(r *Registry) { r.Histogram("h", "x", []float64{1}, Label{"le", "1"}) }},
		{"empty help", func(r *Registry) { r.Counter("c_total", "") }},
		{"help spans two lines", func(r *Registry) { r.Gauge("g", "first\nsecond") }},
		{"descending bounds", func(r *Registry) { r.Histogram("h", "x", []float64{10, 1}) }},
		{"repeated bound", func(r *Registry) { r.Histogram("h", "x", []float64{1, 1}) }},
		{"+Inf bound", func(r *Registry) { r.Histogram("h", "x", []float64{1, math.Inf(1)}) }},
		{"-Inf bound", func(r *Registry) { r.Histogram("h", "x", []float64{math.Inf(-1), 1}) }},
		{"NaN bound", func(r *Registry) { r.Histogram("h", "x", []float64{math.NaN()}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("registration accepted")
					}
				}()
				tc.reg(r)
			}()
			var buf bytes.Buffer
			if err := r.WriteProm(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != 0 {
				t.Fatalf("rejected registration left an exposition:\n%s", buf.String())
			}
		})
	}
}

// TestExpositionEscaping pins the text format's escapes byte for byte: a
// label value escapes only backslash, double quote and newline (a tab stays
// a tab), and help text escapes its backslashes.
func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", `Set from C:\runs.`, Label{"cell", "a\tb\"c\\d\ne"}).Set(1)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP g Set from C:\\\\runs.\n" +
		"# TYPE g gauge\n" +
		"g{cell=\"a\tb\\\"c\\\\d\\ne\"} 1\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n got %q\nwant %q", got, want)
	}
}

func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "x", Label{"k", "1"})
	b := r.Counter("c", "x", Label{"k", "1"})
	if a != b {
		t.Fatal("same label set produced distinct series")
	}
	c := r.Counter("c", "x", Label{"k", "2"})
	if a == c {
		t.Fatal("distinct label sets shared a series")
	}
}
