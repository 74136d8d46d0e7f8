// Command experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment prints rows labeled "real" (executed
// at goroutine scale in this process) and "model" (extrapolated to the
// paper's core counts with the calibrated performance model).
//
// Examples:
//
//	experiments -list
//	experiments -run fig6
//	experiments -run all -ranks 8 -cells 32 -steps 10 -calibrate
//	experiments -shift -check
package main

import (
	"flag"
	"fmt"
	"os"

	"gosensei/internal/experiments"
	"gosensei/internal/parallel"
	"gosensei/internal/perfmodel"
	"gosensei/internal/route"
)

func main() {
	var (
		run       = flag.String("run", "all", "experiment id (see -list) or \"all\"")
		list      = flag.Bool("list", false, "list experiments and exit")
		ranks     = flag.Int("ranks", 4, "ranks for the executed rows")
		cells     = flag.Int("cells", 24, "global cell edge for the executed rows")
		steps     = flag.Int("steps", 8, "time steps for the executed rows")
		imageW    = flag.Int("image-width", 96, "executed-row image width")
		imageH    = flag.Int("image-height", 54, "executed-row image height")
		calibrate = flag.Bool("calibrate", true, "measure kernel costs on this host for the model rows")
		seed      = flag.Int64("seed", 1, "I/O variability seed")
		threads   = flag.Int("threads", 0, "process thread budget shared across ranks (0 = GOMAXPROCS)")
		shift     = flag.Bool("shift", false, "run the mid-run workload-shift routing experiment with the adaptive router")
		check     = flag.Bool("check", false, "with -shift: exit nonzero unless the router switched, finished with zero post-switch budget violations, and beat every static backend")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (everything is a flag)", flag.Arg(0)))
	}
	if *check && !*shift {
		fatal(fmt.Errorf("-check requires -shift"))
	}
	if *threads > 0 {
		parallel.SetThreads(*threads)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %-16s %s\n", e.ID, e.Artifact, e.Summary)
		}
		return
	}

	opt := experiments.DefaultOptions()
	opt.RealRanks = *ranks
	opt.RealCells = *cells
	opt.RealSteps = *steps
	opt.ImageW = *imageW
	opt.ImageH = *imageH
	opt.Seed = *seed
	if *calibrate {
		opt.Calibration = perfmodel.Calibrate()
	}

	if *shift {
		runShift(opt, *check)
		return
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		e, err := experiments.ByID(*run)
		if err != nil {
			fatal(err)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		tab, err := e.Run(opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Println(tab.String())
	}
}

// runShift runs the workload-shift routing experiment, prints its table, and
// with check enforces the smoke-test acceptance: the router must switch, must
// finish with zero post-switch budget violations, and must strictly beat
// every static backend on total violations.
func runShift(opt experiments.Options, check bool) {
	tab, err := experiments.RouteShiftTable(opt)
	if err != nil {
		fatal(fmt.Errorf("routeshift: %w", err))
	}
	fmt.Println(tab.String())
	if !check {
		return
	}
	res, err := experiments.RouteShift(opt)
	if err != nil {
		fatal(fmt.Errorf("routeshift: %w", err))
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiments: routeshift check failed: "+format+"\n", args...)
		fmt.Fprintln(os.Stderr, route.FormatDecisions(res.Decisions))
		os.Exit(1)
	}
	if res.Switches < 1 {
		fail("router never switched")
	}
	if res.PostSwitchViolations != 0 {
		fail("%d budget violations after the first switch", res.PostSwitchViolations)
	}
	if !res.BeatsAllStatic() {
		fail("router total %d does not strictly beat statics %v", res.RouterViolations, res.StaticViolations)
	}
	fmt.Printf("routeshift check ok: %d switch(es) at %v, router %d violations vs statics %v, 0 post-switch\n",
		res.Switches, res.SwitchSteps, res.RouterViolations, res.StaticViolations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
