// Package obs is the simulator's unified observability layer: a sampled,
// cycle-domain structured event tracer, a dependency-free metrics registry
// with Prometheus text exposition, and live run-progress accounting.
//
// Three design rules hold everywhere:
//
//   - Observation never perturbs simulation. Every hook is a nil-checked
//     pointer: a disabled tracer costs one predictable branch on the paths
//     that carry it (the bench guard in BENCH_5.json holds the overhead on
//     Table1/Fig3 under 1%), and an enabled tracer only appends to buffers —
//     it never feeds anything back into translation state.
//   - Event time is simulated cycles, never wall clock. Traces are a pure
//     function of (Scenario, Params), so two identical runs emit
//     byte-identical event files and a trace diffs cleanly across code
//     changes. The package is inside the determinism lint scope to keep it
//     that way; the progress meter, which genuinely measures wall-clock
//     throughput, takes explicit timestamps from its caller instead of
//     reading a clock.
//   - Exports use boring, widely readable formats: Chrome trace_event JSON
//     (loadable in Perfetto / chrome://tracing) for events, the Prometheus
//     text exposition format for metrics. ValidateTraceJSON checks a trace
//     file without external tooling, so CI can gate on it; the Registry
//     checks each metric against the exposition rules when its series is
//     created, so WriteProm has no invalid registration to render.
package obs
