package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change pairs a verdict other than unresolved
// rests on.
const minPairs = 10

// runOutput is one untraced run's standard output, reduced to what a
// comparison needs.
type runOutput struct {
	workload string
	correct  bool
	metrics  map[string]float64
}

// parseRun reads a run's output: the workload from its header line and the
// metrics from its last line. traced reports a traced run, which carries no
// end-to-end metrics.
func parseRun(file string, data []byte) (out runOutput, traced bool, err error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "bench: "); ok && out.workload == "" {
			for _, f := range strings.Fields(rest) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "workload":
					out.workload = v
				case "trace":
					traced = v == "1"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return out, false, fmt.Errorf("%s: %w", file, err)
	}
	if out.workload == "" {
		return out, false, fmt.Errorf("%s: no bench header line", file)
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return out, false, fmt.Errorf("%s: last line is not a result: %w", file, err)
	}
	out.correct = res.Correct
	out.metrics = map[string]float64{}
	for k, m := range res.Metrics {
		out.metrics[k] = m.Value
	}
	return out, traced, nil
}

// readRuns loads the untraced run outputs in dir — its *.txt files, one
// run's standard output each — in file-name order.
func readRuns(dir string) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runOutput
	for _, e := range entries {
		if !e.Type().IsRegular() || filepath.Ext(e.Name()) != ".txt" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r, traced, err := parseRun(path, data)
		if err != nil {
			return nil, err
		}
		if !traced {
			out = append(out, r)
		}
	}
	return out, nil
}

// verdict compares one end-to-end metric of one workload.
type verdict struct {
	workload, metric       string
	pairs, wins, ties      int
	parentQ1, parentMedian float64
	parentQ3               float64
	changeQ1, changeMedian float64
	changeQ3               float64
	worse                  float64 // relative worsening of the change's median
	verdict                string
}

// judge applies the paired-run rule to parent and change values, where the
// i-th values of each side form a pair. The change is faster when it wins at
// least nine tenths of the pairs (ties count for neither) and the medians
// differ by more than the parent's quartile spread; slower when its median is
// worse than the parent's by more than bound; unresolved when there are too
// few pairs, or when the parent's own spread exceeds bound and not every
// change run beats every parent run; within noise otherwise.
func judge(spec metricSpec, parent, change []float64, extraFailures bool) verdict {
	n := min(len(parent), len(change))
	v := verdict{metric: spec.name, pairs: n}
	better := func(a, b float64) bool { // a better than b
		if spec.better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < n; i++ {
		switch {
		case change[i] == parent[i]:
			v.ties++
		case better(change[i], parent[i]):
			v.wins++
		}
	}
	v.parentQ1, v.parentQ3 = quartiles(parent)
	v.changeQ1, v.changeQ3 = quartiles(change)
	v.parentMedian, v.changeMedian = median(parent), median(change)
	v.worse = (v.changeMedian - v.parentMedian) / v.parentMedian
	if spec.better == "higher" {
		v.worse = -v.worse
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := v.parentQ3 - v.parentQ1
	switch {
	case n < minPairs:
		v.verdict = "unresolved"
	case v.wins*10 >= 9*n && v.worse < 0 && math.Abs(v.changeMedian-v.parentMedian) > spread && !extraFailures:
		v.verdict = "faster"
	case v.worse > spec.bound:
		v.verdict = "slower"
	case spread/v.parentMedian > spec.bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "within-noise"
	}
	return v
}

// compareRuns judges every workload × end-to-end metric present on both
// sides, pairing runs in file-name order.
func compareRuns(parent, change []runOutput) []verdict {
	byWorkload := func(runs []runOutput) map[string][]runOutput {
		m := map[string][]runOutput{}
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	names := make([]string, 0, len(pw))
	for w := range pw {
		if _, ok := cw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	failures := func(runs []runOutput) int {
		n := 0
		for _, r := range runs {
			if !r.correct {
				n++
			}
		}
		return n
	}
	var out []verdict
	for _, w := range names {
		extra := failures(cw[w]) > failures(pw[w])
		for _, spec := range endToEnd {
			values := func(runs []runOutput) []float64 {
				var xs []float64
				for _, r := range runs {
					if x, ok := r.metrics[spec.name]; ok {
						xs = append(xs, x)
					}
				}
				return xs
			}
			v := judge(spec, values(pw[w]), values(cw[w]), extra)
			v.workload = w
			out = append(out, v)
		}
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	parent, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-10s %-12s %5s %9s  %-36s %-36s %8s  %s\n",
		"workload", "metric", "pairs", "win share", "parent median [q1, q3]", "change median [q1, q3]", "worse", "verdict")
	for _, v := range compareRuns(parent, change) {
		winShare := ratio(float64(v.wins), float64(v.pairs-v.ties))
		fmt.Fprintf(stdout, "%-10s %-12s %5d %9.2f  %-36s %-36s %+7.1f%%  %s\n",
			v.workload, v.metric, v.pairs, winShare,
			fmt.Sprintf("%.5g [%.5g, %.5g]", v.parentMedian, v.parentQ1, v.parentQ3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", v.changeMedian, v.changeQ1, v.changeQ3),
			100*v.worse, v.verdict)
	}
	return 0
}
