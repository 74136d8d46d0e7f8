package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// header states how a run was made; it opens the text report and report.json.
type header struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Ranks      int     `json:"ranks"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick"`
	WarmSteps  int     `json:"warm_steps"`
	Steps      int     `json:"steps_per_repetition"`
	Reps       int     `json:"repetitions"`
	Samples    int     `json:"step_samples"`
	Cycles     int     `json:"setup_cycles"`
}

func makeHeader(cfg config, pl plan, res *outcome) header {
	h := header{
		Commit: "unknown", Go: runtime.Version(), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Ranks: simRanks,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
		WarmSteps: pl.warm, Steps: pl.steps,
		Reps: res.repetitions, Samples: res.samples, Cycles: res.cycles,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the CPU's name for the header; "unknown" off Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printedDefs are the metrics a pass prints: the end-to-end ones timed, the
// per-layer ones traced.
func printedDefs(trace bool) []metricDef {
	if trace {
		return perLayerDefs
	}
	return endToEndDefs
}

func makeResult(res *outcome) result {
	r := result{
		Correct:   res.correct(),
		Attempted: res.checks.attempted,
		Failed:    res.checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range printedDefs(res.cfg.trace) {
		r.Metrics[d.Name] = metricValue{res.metrics[d.Name], d.Unit}
	}
	return r
}

// resultLine renders the last line of standard output.
func resultLine(res *outcome) string {
	b, err := json.Marshal(makeResult(res))
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(b)
}

// printReport writes the human-readable report: the run header, then every
// metric of the pass with its per-repetition scatter where there is one.
func printReport(w io.Writer, res *outcome) {
	h := res.header
	fmt.Fprintf(w, "bench %s: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, %d ranks, seed %d, trace %v\n",
		h.Workload, h.Commit, h.Go, h.CPU, h.NProc, h.GOMAXPROCS, h.Ranks, h.Seed, h.Trace)
	fmt.Fprintf(w, "  %d warm + %d timed steps a repetition, %d repetitions, %d step samples, %d set-up cycles, %.1fs of %.0fs\n",
		h.WarmSteps, h.Steps, h.Reps, h.Samples, h.Cycles, res.elapsed.Seconds(), h.Seconds)
	for _, d := range printedDefs(res.cfg.trace) {
		line := fmt.Sprintf("  %-38s %14.4f %-6s", d.Name, res.metrics[d.Name], d.Unit)
		if reps := res.reps[d.Name]; len(reps) > 1 {
			line += fmt.Sprintf("  scatter %.3f over %d", scatter(reps), len(reps))
		}
		fmt.Fprintln(w, line)
	}
	if !res.cfg.trace {
		names := make([]string, 0, len(res.diag))
		for k := range res.diag {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-38s %14.4f\n", k, res.diag[k])
		}
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", res.checks.attempted, res.checks.failed)
	for _, a := range res.asserts {
		fmt.Fprintf(w, "  ASSERTION FAILED: %s\n", a)
	}
}

// fullReport is report.json: the header, the result, and every
// repetition's value with (max-min)/median per metric.
type fullReport struct {
	Header      header               `json:"header"`
	Result      result               `json:"result"`
	Diagnostics map[string]float64   `json:"diagnostics"`
	Repetitions map[string][]float64 `json:"repetitions"`
	Scatter     map[string]float64   `json:"scatter"`
	Asserts     []string             `json:"failed_assertions"`
}

func writeReport(path string, res *outcome) error {
	rep := fullReport{
		Header: res.header, Result: makeResult(res), Diagnostics: res.diag,
		Repetitions: res.reps, Scatter: map[string]float64{}, Asserts: res.asserts,
	}
	for k, v := range res.reps {
		rep.Scatter[k] = scatter(v)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}
