// Command asaptrace records, inspects and replays binary reference traces
// (see internal/trace for the format). It is the workload on-ramp: any
// reference stream — captured from a synthetic scenario here, hand-built, or
// converted from an external tool — becomes a runnable scenario.
//
//	asaptrace record -workload mc80 -o mc80.trc.gz
//	asaptrace record -workload mcf -procs 4 -mix mcf,canneal -o mix.trc
//	asaptrace info mc80.trc.gz
//	asaptrace replay -asap p1+p2 mc80.trc.gz
//	asaptrace replay -asap p1+p2 -events events.json mc80.trc.gz
//
// record simulates the scenario with a reference tap attached and writes one
// trace per process (multi-process captures write <base>.p<N><ext>). The
// reference stream depends only on the workload, seed and schedule — not on
// ASAP configuration — so one capture serves a whole ablation grid. info
// prints the header, footprint and a reuse-distance summary. replay drives a
// native scenario from the trace and prints the usual metrics; -events
// additionally records a cycle-domain event trace in Chrome trace_event JSON
// (load it at ui.perfetto.dev), and -prom writes the run's metric registry in
// Prometheus text format.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "asaptrace: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  asaptrace record -workload NAME [-procs N -mix LIST] [-warmup N -measure N] [-seed N] [-fast] [-gzip] -o FILE
  asaptrace info FILE
  asaptrace replay [-asap CFG] [-colocate] [-ctlb] [-holes P] [-warmup N -measure N] [-fast]
                   [-events FILE [-sample N] [-prom FILE]] FILE
`)
}

// smokeProtocol fills the walk counts the user left at zero with -fast's
// smoke protocol, which is shorter than sim.FastParams so a -fast capture
// stays small. Record keeps extra measured headroom so a -fast capture still
// covers a -fast replay's full window.
func smokeProtocol(ps *sim.ParamSpec, record bool) {
	if ps.WarmupWalks == 0 {
		ps.WarmupWalks = 1000
	}
	if ps.MeasureWalks == 0 {
		ps.MeasureWalks = 1000
		if record {
			ps.MeasureWalks = 1800
		}
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("asaptrace record", flag.ExitOnError)
	var cs sim.CellSpec
	var ps sim.ParamSpec
	fs.StringVar(&cs.Workload, "workload", "mc80", "workload name ("+strings.Join(workload.Names(), ", ")+")")
	fs.StringVar(&cs.Mix, "mix", "", "comma-separated co-scheduled workloads (with -procs)")
	fs.IntVar(&ps.WarmupWalks, "warmup", 0, "warmup page walks (0 = default)")
	fs.IntVar(&ps.MeasureWalks, "measure", 0, "measured page walks (0 = default)")
	fs.Uint64Var(&ps.Seed, "seed", 0, "random seed (0 = default)")
	fs.IntVar(&ps.Processes, "procs", 1, "co-scheduled processes (one trace per process)")
	fs.IntVar(&ps.QuantumRefs, "quantum", 0, "mean scheduler quantum in references (0 = default)")
	var (
		out  = fs.String("o", "", "output trace file (required; .gz implies -gzip)")
		gz   = fs.Bool("gzip", false, "gzip-compress the trace body")
		fast = fs.Bool("fast", false, "reduced measurement protocol")
	)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record needs -o FILE")
	}
	if *fast {
		smokeProtocol(&ps, true)
	}
	sc, p, err := sim.Parse(cs, ps)
	if err != nil {
		return err
	}
	compress := *gz || strings.HasSuffix(*out, ".gz")

	paths := map[int]string{}
	rec := trace.NewRecorder(func(pid int) (io.WriteCloser, error) {
		path := *out
		if p.Processes > 1 {
			ext := filepath.Ext(path)
			base := strings.TrimSuffix(path, ext)
			if ext == ".gz" { // keep compound extensions like .trc.gz together
				inner := filepath.Ext(base)
				base, ext = strings.TrimSuffix(base, inner), inner+ext
			}
			path = fmt.Sprintf("%s.p%d%s", base, pid, ext)
		}
		paths[pid] = path
		return os.Create(path)
	}, compress)
	res, err := sim.Run(context.Background(), sc, p, rec, nil)
	if err != nil {
		rec.Close()
		return err
	}
	if err := rec.Close(); err != nil {
		return err
	}
	fmt.Printf("scenario        %s\n", sc.Name())
	fmt.Printf("run             %d walks measured, avg latency %.1f cycles\n", res.Walks, res.AvgWalkLat)
	for _, c := range rec.Captures() {
		fmt.Printf("trace p%-2d       %s: %s, %d refs, digest %s\n", c.PID, paths[c.PID], c.Spec.Name, c.Count, c.Digest)
	}
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("asaptrace info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs exactly one trace file")
	}
	path := fs.Arg(0)
	tr, err := trace.LoadFile(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Printf("file            %s (%d bytes on disk)\n", path, st.Size())
	fmt.Printf("digest          %s\n", tr.Digest)
	fmt.Printf("workload        %s (%s)\n", h.Spec.Name, h.Spec.Description)
	fmt.Printf("capture seed    %d\n", h.Seed)
	big, small := 0, 0
	var spanPages uint64
	for _, a := range h.Areas {
		if a.Big {
			big++
		} else {
			small++
		}
		spanPages += a.Pages
	}
	fmt.Printf("vma layout      %d areas (%d dataset, %d small), %d pages spanned\n",
		len(h.Areas), big, small, spanPages)
	in := tr.Info()
	fmt.Printf("references      %d\n", in.Count)
	fmt.Printf("footprint       %d unique pages (%.1f MiB)\n",
		in.UniquePages, float64(in.UniquePages*mem.PageSize)/float64(mem.MiB))
	fmt.Printf("cold refs       %d (first touches)\n", in.ColdRefs)
	fmt.Printf("reuse distance  p50 %d, p90 %d pages\n", in.ReuseP50, in.ReuseP90)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("asaptrace replay", flag.ExitOnError)
	var cs sim.CellSpec
	var ps sim.ParamSpec
	fs.StringVar(&cs.ASAP, "asap", "off", "native ASAP config: off, p1, p1+p2, p1+p2+p3")
	fs.BoolVar(&cs.Colocated, "colocate", false, "add the synthetic SMT co-runner")
	fs.BoolVar(&cs.ClusteredTLB, "ctlb", false, "replace the STLB with a Clustered TLB")
	fs.Float64Var(&ps.HoleProb, "holes", 0, "probability of a hole per ASAP-region PT node")
	fs.IntVar(&ps.WarmupWalks, "warmup", 0, "warmup page walks (0 = default)")
	fs.IntVar(&ps.MeasureWalks, "measure", 0, "measured page walks (0 = default)")
	var (
		fast    = fs.Bool("fast", false, "reduced measurement protocol")
		events  = fs.String("events", "", "write a Chrome trace_event JSON of the run (load at ui.perfetto.dev)")
		sample  = fs.Int("sample", 1, "with -events, trace every Nth walk (and TLB hit)")
		promOut = fs.String("prom", "", "with -events, write the run's metrics in Prometheus text format")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay needs exactly one trace file")
	}
	if *events == "" && *promOut != "" {
		return fmt.Errorf("-prom requires -events")
	}
	if *fast {
		smokeProtocol(&ps, false)
	}
	cs.Trace = fs.Arg(0)
	sc, p, err := sim.Parse(cs, ps)
	if err != nil {
		return err
	}
	tr, err := sim.RegisteredTrace(sc.Trace)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	var reg *obs.Registry
	if *events != "" {
		if *promOut != "" {
			reg = obs.NewRegistry()
		}
		tracer = obs.NewTracer(obs.TraceConfig{Sample: *sample, Metrics: reg})
	}
	res, err := sim.Run(context.Background(), sc, p, nil, tracer)
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := writeEvents(*events, tracer); err != nil {
			return err
		}
		fmt.Printf("event trace         %s: %d events (sample 1/%d)\n", *events, len(tracer.Events()), *sample)
		if reg != nil {
			if err := writeProm(*promOut, reg); err != nil {
				return err
			}
			fmt.Printf("metrics             %s\n", *promOut)
		}
	}
	fmt.Printf("scenario            %s\n", sc.Name())
	fmt.Printf("trace               %s: %d refs, digest %s\n", fs.Arg(0), tr.Count, tr.Digest)
	fmt.Printf("references          %d measured\n", res.Accesses)
	fmt.Printf("page walks          %d (TLB miss ratio %.1f%%)\n", res.Walks, 100*res.TLBMissRatio)
	fmt.Printf("avg walk latency    %.1f cycles\n", res.AvgWalkLat)
	fmt.Printf("walk cycle share    %.1f%% of execution (model)\n", 100*res.WalkFraction)
	fmt.Printf("TLB MPKI            %.2f\n", res.MPKI)
	if sc.ASAP.Enabled() {
		fmt.Printf("prefetches          %d issued, %d accesses covered\n", res.PrefetchIssued, res.PrefetchCovered)
		fmt.Printf("range-register hits %.1f%%\n", 100*res.RangeHitRate)
	}
	if res.Walks == 0 {
		fmt.Println("note: the trace ran dry before the measurement window; shrink -warmup/-measure (or pass -fast)")
	}
	return nil
}

// writeEvents writes the tracer's event buffer as Chrome trace_event JSON.
func writeEvents(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tracer.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProm writes the run's metric registry in Prometheus text format.
func writeProm(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
