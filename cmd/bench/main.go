// Command bench is the repository's canonical benchmark: four paper-shaped
// workloads assembled in-process from the layers' public functions, each
// measured end to end in a timed pass (--trace 0) and layer by layer in a
// traced pass (--trace 1), with every output checked bit for bit against a
// one-rank serial reference. BENCHMARK.json at the repository root is the
// contract; README.md beside this file defines every workload and metric.
//
//	go run ./cmd/bench --workload insitu-stats --seed 1 --seconds 30 --trace 0
//	go run ./cmd/bench -workload live-fanout -trace 1 -trace-out spans.jsonl
//	go run ./cmd/bench -selfcheck -seconds 10
//	go run ./cmd/bench -spec > BENCHMARK.json
//
// The last line of standard output is the contract's result object.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		cfg       config
		trace     = flag.Int("trace", 0, "0: timed pass, prints the end-to-end metrics; 1: traced pass, prints the per-layer metrics")
		out       = flag.String("out", "", "also write the full report (header, every repetition's values, scatter) as JSON to this file")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json, generated from the metric tables, and exit")
		selfcheck = flag.Bool("selfcheck", false, "rehearse the acceptance check: two interleaved sets of runs per workload, spreads and medians held against the bounds")
		runs      = flag.Int("runs", 4, "runs per set and workload for -selfcheck")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the run's inputs: deck jitter, slice coordinate, live frame bodies")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "time budget of the run")
	flag.BoolVar(&cfg.quick, "quick", false, "test sizes: a dozen steps, one repetition")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the last traced repetition's spans as JSON lines to this file (needs -trace 1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *spec {
		_, _ = os.Stdout.Write(specJSON())
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	cfg.trace = *trace == 1

	// SIGINT raises the stop flag; every loop agrees on it at its next
	// step boundary and unwinds through the normal tear-down. A second
	// signal gives up on that and only removes the scratch directories.
	var stop atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigc:
			stop.Store(true)
		case <-finished:
			return
		}
		select {
		case <-sigc:
			removeScratch()
			os.Exit(130)
		case <-finished:
		}
	}()

	if *selfcheck {
		return selfCheck(cfg, *runs, &stop)
	}
	res, err := runWorkload(cfg, &stop)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errInterrupted) {
			return 130
		}
		return 1
	}
	printReport(os.Stdout, res)
	if *out != "" {
		if err := writeReport(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if cfg.traceOut != "" && cfg.trace {
		if err := writeSpans(cfg.traceOut, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(resultLine(res))
	if !res.correct() {
		return 1
	}
	return 0
}

// removeScratch deletes every scratch directory under the working
// directory; the last resort of an interrupted run.
func removeScratch() {
	dirs, err := filepath.Glob(".gosensei-bench-*")
	if err != nil {
		return
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
}
