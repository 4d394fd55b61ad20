// Command obscheck validates an event trace — the CI teeth behind
// internal/obs's trace format guarantee:
//
//	obscheck trace events.json    # Chrome trace_event JSON: parse + span nesting
//
// It checks that the file parses as trace_event JSON, that every event's
// phase and fields are well-formed, and that spans nest strictly within each
// (pid, tid) track — the invariant Perfetto's flame view relies on. Nesting
// depends on the order in which the simulator emits events, so only the
// artifact can show it. Metric expositions need no such check: obs.Registry
// enforces the exposition rules when each series is created.
//
// Exit status is 0 when the trace is clean, 1 with a diagnostic otherwise,
// and 2 on a usage error.
package main

import (
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) != 3 || os.Args[1] != "trace" {
		fmt.Fprintln(os.Stderr, "usage: obscheck trace FILE")
		os.Exit(2)
	}
	path := os.Args[2]
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
	n, err := obs.ValidateTraceJSON(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d events, spans nest\n", path, n)
}
