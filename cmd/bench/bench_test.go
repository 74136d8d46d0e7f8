package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// mustWork names, per workload, per-layer metrics that must read non-zero:
// the layers that do that workload's work. Every other metric may read 0
// there, but is still printed.
var mustWork = map[string][]string{
	"insitu-stats": {
		"oscillator.step_ms_p50", "oscillator.mcells_per_s", "core.adaptor_us_p50", "core.bridge_self_us_p50",
		"analysis.histogram_ms_p50", "analysis.autocorrelation_ms_p50", "analysis.autocorrelation_buffer_mb",
		"mpi.allreduce_80b_us_p50", "mpi.barrier_us_p50", "mpi.msgs_per_step", "mpi.bytes_per_step",
		"run.serial_step_ms_p10", "run.decomposition_ratio",
	},
	"insitu-render-tcp": {
		"oscillator.step_ms_p50", "core.bridge_self_us_p50", "mpi.exchange_2mib_ms_p50", "mpi.bytes_per_step",
		"world.join_ms_p10", "world.wire_bytes_per_step", "world.conn_writes_per_step", "world.conn_write_ms_per_step",
		"world.alloc_kb_per_exchange", "render.slice_ms_p50", "render.png_ms_p50", "render.png_mpix_per_s",
		"render.png_bytes_per_frame", "compositing.composite_ms_p50", "compositing.bytes_exchanged_per_step",
		"catalyst.execute_ms_p50", "catalyst.init_ms_p10", "run.serial_step_ms_p10",
	},
	"intransit-delta": {
		"oscillator.step_ms_p50", "analysis.endpoint_histogram_ms_p50", "mpi.allreduce_80b_us_p50",
		"adios.encode_ms_p50", "adios.encode_mb_per_s", "adios.decode_ms_p50", "adios.write_step_ms_p50",
		"adios.advance_ms_p50", "adios.endpoint_decode_ms_p50", "adios.endpoint_init_ms_p10",
		"fabric.wire_bytes_per_step", "fabric.logical_bytes_per_step", "fabric.wire_reduction",
		"fabric.conn_writes_per_step", "fabric.conn_write_ms_per_step", "fabric.send_self_ms_p50",
		"fabric.frame_roundtrip_us_p50", "fabric.handshake_ms_p10", "run.serial_step_ms_p10",
	},
	"live-fanout": {
		"live.publish_us_p50", "live.sweep_us_p50", "live.wire_delivery_us_p50", "live.steer_rtt_us_p50",
		"live.heap_kb_per_sub", "live.heap_kb_per_viewer", "live.attach_us_per_sub",
	},
}

// everyRun names per-layer metrics every workload must fill.
var everyRun = []string{
	"run.step_ms_p50", "run.step_ms_p95", "run.step_samples", "run.core_ms_per_step", "run.wall_per_core_ratio", "run.goroutines_peak",
	"run.step_ms_p10_nproc", "run.parallel_speedup_nproc", "run.host_ref_ms_p10", "run.ledger_coverage",
	"run.trace_overhead_ratio",
}

// TestWorkloadsQuick runs every workload at -quick sizes in both passes:
// outputs correct, every contracted name printed and nothing else, the
// ledger closed, and nothing left behind.
func TestWorkloadsQuick(t *testing.T) {
	idle := runtime.NumGoroutine()
	var stop atomic.Bool
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(config{workload: w.Name, seed: 7, seconds: runSeconds, trace: trace, quick: true}, &stop)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.correct() || res.checks.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d checks failed, assertions %v",
					w.Name, trace, res.checks.failed, res.checks.attempted, res.asserts)
			}
			line := makeResult(res)
			defs := printedDefs(trace)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, contract lists %d", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, d.Name)
					continue
				}
				if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s trace=%v: %s = %v %s", w.Name, trace, d.Name, v.Value, v.Unit)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, d.Name)
				}
			}
			if !trace {
				continue
			}
			for _, name := range append(append([]string(nil), mustWork[w.Name]...), everyRun...) {
				if line.Metrics[name].Value == 0 {
					t.Errorf("%s: per-layer metric %s reads 0 where its layer works", w.Name, name)
				}
			}
			if c := line.Metrics["run.ledger_coverage"].Value; c < 0.85 {
				t.Errorf("%s: run.ledger_coverage %.3f < 0.85", w.Name, c)
			}
			if len(res.spans) == 0 {
				t.Errorf("%s: traced pass kept no spans", w.Name)
			}
		}
	}
	if left, _ := filepath.Glob(".gosensei-bench-*"); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	for waited := 0; runtime.NumGoroutine() > idle; waited++ {
		if waited > 2000 {
			t.Fatalf("%d goroutines left running (%d before the runs)", runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpecMatchesBenchmarkJSON fails when BENCHMARK.json and the metric
// tables drift: regenerate the file with `go run ./cmd/bench -spec`.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Errorf("BENCHMARK.json differs from `go run ./cmd/bench -spec`")
	}
}

// TestSpecWithinContractLimits holds the tables to the contract's limits.
func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range endToEndDefs {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == lower
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		use(d.Name)
	}
	if runSeconds < 1 || runSeconds > 60 || len(specJSON()) > 64<<10 {
		t.Errorf("run_seconds %d, spec %d bytes", runSeconds, len(specJSON()))
	}
}

// TestNoLintSuppressions keeps the package clean under gosenseilint's
// module scan (internal/lint's TestModuleIsLintClean, tier 1) without a
// single directive of its own.
func TestNoLintSuppressions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	directive := "//lint:" + "ignore"
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte(directive)) {
			t.Errorf("%s carries a lint suppression", f)
		}
	}
}

// TestQuartilesMatchPython pins the selfcheck's spread to what the driver
// computes with statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v .. %v, want 1 .. 4.5", q1, q3)
	}
}
