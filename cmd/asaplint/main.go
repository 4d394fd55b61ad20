// asaplint is the repository's invariant linter: a multichecker running the
// repo-specific analyzers (meterwindow, keycomplete, determinism, seededrand,
// ctxflow, crashsafe, lockcheck, mixedaccess) alongside curated stock passes
// (nilness, shadow; go vet runs copylocks and unusedresult).
//
// Usage:
//
//	go run ./cmd/asaplint ./...          # lint the whole module (CI does this)
//	go run ./cmd/asaplint -only determinism,seededrand ./internal/sim
//	go run ./cmd/asaplint -json ./...    # machine-readable findings
//	go run ./cmd/asaplint -timing ./...  # per-analyzer wall-clock cost
//	go run ./cmd/asaplint -list          # describe every analyzer
//
// Diagnostics print as file:line:col: [analyzer] message; any diagnostic
// makes the process exit 1. Suppress a finding — with a written reason — via
// //lint:ignore <analyzer> <why> (or //lint:ordered <why> for map-iteration
// findings) on the offending line or the line above. -json emits every
// diagnostic including the suppressed ones (marked "suppressed": true); only
// surviving findings affect the exit status. See README "Invariants &
// linting".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/lint/analysis"
	"repro/internal/lint/suite"
)

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array (including suppressed ones)")
	timing := flag.Bool("timing", false, "print per-analyzer wall-clock timings to stderr")
	flag.Parse()

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var selected []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "asaplint: unknown analyzer %q (see -list)\n", name)
			os.Exit(2)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaplint:", err)
		os.Exit(2)
	}
	prog, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaplint:", err)
		os.Exit(2)
	}
	res, err := analysis.RunAll(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asaplint:", err)
		os.Exit(2)
	}

	if *asJSON {
		out := []jsonDiagnostic{} // encode [] rather than null when clean
		for _, d := range append(append([]analysis.Diagnostic{}, res.Diagnostics...), res.Suppressed...) {
			out = append(out, jsonDiagnostic{
				File:       d.Position.Filename,
				Line:       d.Position.Line,
				Col:        d.Position.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "asaplint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Printf("%s: [%s] %s\n", d.Position, d.Analyzer, d.Message)
		}
	}

	if *timing {
		for _, t := range res.Timings {
			fmt.Fprintf(os.Stderr, "asaplint: timing %-14s %s\n", t.Analyzer, t.Elapsed.Round(time.Microsecond))
		}
	}

	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(os.Stderr, "asaplint: %d finding(s)\n", len(res.Diagnostics))
		os.Exit(1)
	}
}
