// Command posthoc is the traditional analysis path: it reads simulation
// output previously written to storage (by gosensei-run with a vtk-writer
// configuration, or by the Fig. 10 harness) and runs an analysis on
// a reduced set of ranks, printing the read/process/write cost split that
// the paper's Fig. 11 reports.
//
// Example:
//
//	posthoc -dir /tmp/run1 -writers 8 -readers 2 -workload histogram
package main

import (
	"flag"
	"fmt"
	"os"

	"gosensei/internal/experiments"
	"gosensei/internal/metrics"
)

func main() {
	var (
		dir      = flag.String("dir", "", "directory holding stepNNNNN_rankNNNNN.blk files")
		writers  = flag.Int("writers", 4, "rank count of the producing run")
		readers  = flag.Int("readers", 1, "rank count for this analysis (the paper uses 10% of writers)")
		workload = flag.String("workload", "histogram", "histogram | autocorrelation | catalyst-slice")
		cells    = flag.Int("cells", 24, "global cell edge of the producing run")
		bins     = flag.Int("bins", 10, "histogram bins")
		window   = flag.Int("window", 10, "autocorrelation window")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (everything is a flag)", flag.Arg(0)))
	}
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	opt := experiments.DefaultOptions()
	opt.RealCells = *cells
	opt.Bins = *bins
	opt.Window = *window

	r, err := experiments.RunPosthoc(*dir, *writers, *readers, experiments.ADIOSWorkload(*workload), opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("post hoc %s over %s (%d writers -> %d readers)\n", *workload, *dir, *writers, *readers)
	fmt.Printf("  read:    %s\n", metrics.FormatSeconds(r.Read))
	fmt.Printf("  process: %s\n", metrics.FormatSeconds(r.Process))
	fmt.Printf("  write:   %s\n", metrics.FormatSeconds(r.Write))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "posthoc:", err)
	os.Exit(1)
}
