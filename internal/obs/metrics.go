package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A dependency-free metrics registry with Prometheus text exposition.
// Families register lazily on first use and are identified by (name, kind);
// series within a family are identified by their ordered label sets.
// Exposition sorts families by name and series by label values, so output
// order is deterministic regardless of registration or update order.
//
// The format's rules are checked once, when a series is created (see
// checkSeries), and a registration that breaks one panics like a kind
// conflict does: both are programming errors. WriteProm therefore only ever
// renders registrations that passed.

// Label is one key/value metric label. Series carry ordered []Label slices —
// never maps — so identity and exposition order are deterministic.
type Label struct {
	Key string
	Val string
}

// metricKind discriminates family types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The float64 value is stored as
// atomic bits so readers never see a torn write.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Upper bounds are set at
// registration (finite, strictly ascending); a +Inf bucket is implicit.
// Observations take a mutex — histograms live on instrumentation paths, not
// disabled hot paths.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // strictly ascending, exclusive of +Inf
	counts []uint64  // len(upper)+1; last is the +Inf bucket
	sum    float64
	total  uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts (per bound, then +Inf), sum and
// total under the histogram's lock.
func (h *Histogram) snapshot() (cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.total
}

// series is one labeled instance within a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with its HELP/TYPE and series set.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series // insertion-ordered; sorted at exposition
}

// Registry holds metric families. It is safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// checkSeries reports why a series about to be created would render as an
// invalid exposition: a metric name or label name outside the Prometheus
// grammar, a repeated label, a reserved label (any __ prefix, and le on a
// histogram, whose buckets carry it), help text that is empty or spans more
// than one line, or histogram bounds that are not finite and strictly
// ascending (+Inf is implicit).
func checkSeries(name, help string, kind metricKind, labels []Label, upper []float64) error {
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricNameRe)
	}
	if help == "" || strings.Contains(help, "\n") {
		return fmt.Errorf("metric %q: help must be one non-empty line, got %q", name, help)
	}
	for i, l := range labels {
		switch {
		case !labelNameRe.MatchString(l.Key):
			return fmt.Errorf("metric %q: label name %q does not match %s", name, l.Key, labelNameRe)
		case strings.HasPrefix(l.Key, "__"):
			return fmt.Errorf("metric %q: label name %q is reserved", name, l.Key)
		case kind == kindHistogram && l.Key == "le":
			return fmt.Errorf("metric %q: label le is reserved for histogram buckets", name)
		}
		for _, prev := range labels[:i] {
			if prev.Key == l.Key {
				return fmt.Errorf("metric %q: label %q repeated", name, l.Key)
			}
		}
	}
	for i, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= upper[i-1]) {
			return fmt.Errorf("metric %q: bucket bounds %v are not finite and strictly ascending", name, upper)
		}
	}
	return nil
}

// lookup finds or creates the family and its series for the ordered label
// set; upper is a new histogram series' bucket bounds. Registering the same
// name with a different kind, or a series checkSeries rejects, panics: that
// is a programming error, not a runtime condition. A rejected series leaves
// the registry untouched.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, upper []float64) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	switch {
	case f == nil:
		f = &family{name: name, help: help, kind: kind}
	case f.kind != kind:
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	if err := checkSeries(name, help, kind, labels, upper); err != nil {
		panic("obs: " + err.Error())
	}
	s := &series{labels: labels}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		bounds := append([]float64(nil), upper...)
		s.h = &Histogram{upper: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	f.series = append(f.series, s)
	r.fams[name] = f
	return s
}

// Counter returns the counter for name and the ordered label set,
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, nil).c
}

// Gauge returns the gauge for name and the ordered label set, registering it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, nil).g
}

// Histogram returns the histogram for name and the ordered label set,
// registering it with the given upper bounds on first use. Bounds must be
// finite and strictly ascending; +Inf is implicit. Later calls for an
// existing series ignore the bounds argument.
func (r *Registry) Histogram(name, help string, upper []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, upper).h
}

// formatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else via strconv's shortest round-trip
// form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelValueEscaper applies the only three escapes the text format defines
// for label values; every other byte, a tab or a NUL included, is written
// as is.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func writeLabels(w io.Writer, labels []Label, extra ...Label) {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) == 0 {
		return
	}
	io.WriteString(w, "{")
	for i, l := range all {
		if i > 0 {
			io.WriteString(w, ",")
		}
		io.WriteString(w, l.Key+`="`+labelValueEscaper.Replace(l.Val)+`"`)
	}
	io.WriteString(w, "}")
}

// WriteProm writes the registry in Prometheus text exposition format 0.0.4.
// Families sort by name and series by their label values, so the output is
// byte-stable for a given metric state.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		// Help text cannot hold a newline (checkSeries), so a backslash is
		// the only byte that needs its escape.
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, `\`, `\\`))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		ser := append([]*series(nil), f.series...)
		sort.Slice(ser, func(i, j int) bool {
			a, b := ser[i].labels, ser[j].labels
			for k := 0; k < len(a) && k < len(b); k++ {
				if a[k].Val != b[k].Val {
					return a[k].Val < b[k].Val
				}
			}
			return len(a) < len(b)
		})
		for _, s := range ser {
			switch f.kind {
			case kindCounter:
				io.WriteString(w, f.name)
				writeLabels(w, s.labels)
				fmt.Fprintf(w, " %d\n", s.c.Value())
			case kindGauge:
				io.WriteString(w, f.name)
				writeLabels(w, s.labels)
				fmt.Fprintf(w, " %s\n", formatValue(s.g.Value()))
			case kindHistogram:
				cum, sum, total := s.h.snapshot()
				for i, bound := range s.h.upper {
					io.WriteString(w, f.name+"_bucket")
					writeLabels(w, s.labels, Label{"le", formatValue(bound)})
					fmt.Fprintf(w, " %d\n", cum[i])
				}
				io.WriteString(w, f.name+"_bucket")
				writeLabels(w, s.labels, Label{"le", "+Inf"})
				fmt.Fprintf(w, " %d\n", cum[len(cum)-1])
				io.WriteString(w, f.name+"_sum")
				writeLabels(w, s.labels)
				fmt.Fprintf(w, " %s\n", formatValue(sum))
				io.WriteString(w, f.name+"_count")
				writeLabels(w, s.labels)
				fmt.Fprintf(w, " %d\n", total)
			}
		}
	}
	return nil
}
