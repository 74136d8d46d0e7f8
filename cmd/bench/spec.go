package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's contract lives here: BENCHMARK.json is generated from
// these tables (`go run ./cmd/bench -spec`) and bench_test.go fails when
// the file and the tables drift apart.

// runSeconds is how long the driver lets one run measure.
const runSeconds = 30

// metricDef is one metric of the contract. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"insitu-stats", "Kernel-bound: 64^3 oscillator, core bridge, histogram and autocorrelation over small in-process mpi collectives; render, wire and disk idle, so a render, fabric or live change must leave it flat."},
	{"insitu-render-tcp", "Render, composite and PNG bound, and the only place world works: the two ranks exchange half images as mpi envelopes over one tcp connection instead of 80-byte channel reductions."},
	{"intransit-delta", "adios BP encode, fabric delta+flate codec, framing, credits and endpoint decode over two tcp connections: bytes, blocked time and result lag in one workload, so a gain that costs another shows."},
	{"live-fanout", "The only workload where live works: sealed broadcast to 1000 swept subscriptions and 2 tcp viewers in a closed loop with steering; a live change moves only this one."},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are measured in the timed pass (--trace 0) and are non-zero
// on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"step_ms_p10", "ms", lower, 0.20},
	{"sim_blocked_ms_p10", "ms", lower, 0.20},
	{"result_lag_ms_p10", "ms", lower, 0.25},
	{"bytes_out_per_step", "B", lower, 0.03},
	{"alloc_kb_per_step", "KiB", lower, 0.05},
	{"mallocs_per_step", "count", lower, 0.05},
	{"heap_peak_mb", "MiB", lower, 0.15},
}

// perLayerDefs are measured in the traced pass (--trace 1). A metric reads 0
// on a workload where its layer does no work.
var perLayerDefs = []metricDef{
	{Name: "oscillator.step_ms_p50", Unit: "ms", Better: lower},
	{Name: "oscillator.mcells_per_s", Unit: "1/s", Better: higher},

	{Name: "core.adaptor_us_p50", Unit: "us", Better: lower},
	{Name: "core.bridge_self_us_p50", Unit: "us", Better: lower},

	{Name: "analysis.histogram_ms_p50", Unit: "ms", Better: lower},
	{Name: "analysis.autocorrelation_ms_p50", Unit: "ms", Better: lower},
	{Name: "analysis.autocorrelation_buffer_mb", Unit: "MiB", Better: lower},
	{Name: "analysis.endpoint_histogram_ms_p50", Unit: "ms", Better: lower},

	{Name: "mpi.allreduce_80b_us_p50", Unit: "us", Better: lower},
	{Name: "mpi.barrier_us_p50", Unit: "us", Better: lower},
	{Name: "mpi.exchange_2mib_ms_p50", Unit: "ms", Better: lower},
	{Name: "mpi.msgs_per_step", Unit: "count", Better: lower},
	{Name: "mpi.bytes_per_step", Unit: "B", Better: lower},

	{Name: "world.join_ms_p10", Unit: "ms", Better: lower},
	{Name: "world.wire_bytes_per_step", Unit: "B", Better: lower},
	{Name: "world.conn_writes_per_step", Unit: "count", Better: lower},
	{Name: "world.conn_write_ms_per_step", Unit: "ms", Better: lower},
	{Name: "world.alloc_kb_per_exchange", Unit: "KiB", Better: lower},

	{Name: "render.slice_ms_p50", Unit: "ms", Better: lower},
	{Name: "render.png_ms_p50", Unit: "ms", Better: lower},
	{Name: "render.png_mpix_per_s", Unit: "1/s", Better: higher},
	{Name: "render.png_bytes_per_frame", Unit: "B", Better: lower},
	{Name: "compositing.composite_ms_p50", Unit: "ms", Better: lower},
	{Name: "compositing.bytes_exchanged_per_step", Unit: "B", Better: lower},
	{Name: "catalyst.execute_ms_p50", Unit: "ms", Better: lower},
	{Name: "catalyst.init_ms_p10", Unit: "ms", Better: lower},

	{Name: "adios.encode_ms_p50", Unit: "ms", Better: lower},
	{Name: "adios.encode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "adios.decode_ms_p50", Unit: "ms", Better: lower},
	{Name: "adios.write_step_ms_p50", Unit: "ms", Better: lower},
	{Name: "adios.advance_ms_p50", Unit: "ms", Better: lower},
	{Name: "adios.endpoint_decode_ms_p50", Unit: "ms", Better: lower},
	{Name: "adios.endpoint_init_ms_p10", Unit: "ms", Better: lower},

	{Name: "fabric.wire_bytes_per_step", Unit: "B", Better: lower},
	{Name: "fabric.logical_bytes_per_step", Unit: "B", Better: lower},
	{Name: "fabric.wire_reduction", Unit: "ratio", Better: higher},
	{Name: "fabric.conn_writes_per_step", Unit: "count", Better: lower},
	{Name: "fabric.conn_write_ms_per_step", Unit: "ms", Better: lower},
	{Name: "fabric.send_self_ms_p50", Unit: "ms", Better: lower},
	{Name: "fabric.frame_roundtrip_us_p50", Unit: "us", Better: lower},
	{Name: "fabric.handshake_ms_p10", Unit: "ms", Better: lower},
	{Name: "fabric.retransmits", Unit: "count", Better: lower},
	{Name: "fabric.reconnects", Unit: "count", Better: lower},

	{Name: "live.publish_us_p50", Unit: "us", Better: lower},
	{Name: "live.publish_allocs_per_op", Unit: "count", Better: lower},
	{Name: "live.sweep_us_p50", Unit: "us", Better: lower},
	{Name: "live.wire_delivery_us_p50", Unit: "us", Better: lower},
	{Name: "live.steer_rtt_us_p50", Unit: "us", Better: lower},
	{Name: "live.skipped_frames", Unit: "count", Better: lower},
	{Name: "live.heap_kb_per_sub", Unit: "KiB", Better: lower},
	{Name: "live.heap_kb_per_viewer", Unit: "KiB", Better: lower},
	{Name: "live.attach_us_per_sub", Unit: "us", Better: lower},

	{Name: "run.step_ms_p50", Unit: "ms", Better: lower},
	{Name: "run.step_ms_p95", Unit: "ms", Better: lower},
	{Name: "run.step_samples", Unit: "count", Better: higher},
	{Name: "run.core_ms_per_step", Unit: "ms", Better: lower},
	{Name: "run.wall_per_core_ratio", Unit: "ratio", Better: lower},
	{Name: "run.gc_cycles", Unit: "count", Better: lower},
	{Name: "run.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "run.goroutines_peak", Unit: "count", Better: lower},
	{Name: "run.serial_step_ms_p10", Unit: "ms", Better: lower},
	{Name: "run.decomposition_ratio", Unit: "ratio", Better: lower},
	{Name: "run.step_ms_p10_nproc", Unit: "ms", Better: lower},
	{Name: "run.parallel_speedup_nproc", Unit: "ratio", Better: higher},
	{Name: "run.host_ref_ms_p10", Unit: "ms", Better: lower},
	{Name: "run.host_ref_spread", Unit: "ratio", Better: lower},
	{Name: "run.ledger_coverage", Unit: "ratio", Better: higher},
	{Name: "run.trace_overhead_ratio", Unit: "ratio", Better: lower},
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []specMetric  `json:"end_to_end"`
	PerLayer   []specLayer   `json:"per_layer"`
}

// specMetric and specLayer pin the key sets the contract asks for: an
// end-to-end metric always prints its bound, a per-layer metric never does.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() []byte {
	s := benchmarkSpec{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEndDefs {
		s.EndToEnd = append(s.EndToEnd, specMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		s.PerLayer = append(s.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return buf.Bytes()
}
