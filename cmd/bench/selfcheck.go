package main

import (
	"fmt"
	"os"
	"sync/atomic"
)

// selfCheck rehearses the driver's acceptance check locally: the timed
// suite runs as two interleaved sets of `runs` runs per workload, each run
// with its own seed, and every end-to-end metric's middle-half spread and
// set-to-set median shift are held against its bound.
func selfCheck(cfg config, runs int, stop *atomic.Bool) int {
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck needs -runs >= 2")
		return 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < runs; i++ {
		for _, w := range workloadDefs {
			for set := range sets {
				c := cfg
				c.workload, c.trace, c.traceOut = w.Name, false, ""
				c.seed = cfg.seed + int64(1000*set+i)
				res, err := runWorkload(c, stop)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (seed %d): %v\n", w.Name, c.seed, err)
					return 1
				}
				if !res.correct() {
					fmt.Fprintf(os.Stderr, "bench: %s (seed %d): %d of %d checks failed\n",
						w.Name, c.seed, res.checks.failed, res.checks.attempted)
					return 1
				}
				for _, d := range endToEndDefs {
					k := key{w.Name, d.Name}
					sets[set][k] = append(sets[set][k], res.metrics[d.Name])
				}
				fmt.Printf("run %d/%d set %d %-18s step_ms_p10 %.4f\n", i+1, runs, set+1, w.Name, res.metrics["step_ms_p10"])
			}
		}
	}
	bad := 0
	fmt.Printf("%-18s %-20s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median 1", "spread 1", "median 2", "spread 2", "shift", "bound")
	for _, w := range workloadDefs {
		for _, d := range endToEndDefs {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			ma, mb := median(a), median(b)
			sa, sb := spreadShare(a), spreadShare(b)
			shift := 0.0 // how much worse (higher) the second set's median reads
			if ma != 0 {
				shift = (mb - ma) / ma
			}
			verdict := ""
			// The driver exempts setup_s from the spread check only.
			if d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) {
				verdict = "  SPREAD"
				bad++
			}
			if shift > d.Bound {
				verdict += "  SHIFT"
				bad++
			}
			fmt.Printf("%-18s %-20s %12.4f %8.4f %12.4f %8.4f %+8.4f %6.2f%s\n",
				w.Name, d.Name, ma, sa, mb, sb, shift, d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d violations\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every spread and shift within its bound")
	return 0
}
