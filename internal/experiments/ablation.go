package experiments

import (
	"fmt"

	"gosensei/internal/grid"
	"gosensei/internal/launch"
	"gosensei/internal/metrics"
	"gosensei/internal/oscillator"
)

// ZeroCopyAblation quantifies the paper's central design decision as a
// table: the per-step cost and tracked memory of accessing the simulation
// data through (a) the zero-copy SENSEI adaptor and (b) a deep-copying
// adaptor, at several per-rank grid sizes. The adaptor is the first step of
// a one-rank oscillator plan's source.
func ZeroCopyAblation(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Ablation — zero-copy vs copying data adaptor",
		Columns: []string{"row", "cells/rank", "mode", "access/step", "extra memory"},
	}
	for _, edge := range []int{16, 24, 32} {
		for _, forceCopy := range []bool{false, true} {
			mode := "zero-copy"
			if forceCopy {
				mode = "copy"
			}
			var perStep float64
			var extra int64
			_, err := runPlan(launch.Request{NP: 1, Cells: edge, Steps: 1}, func(r *launch.Rank) error {
				src, err := r.Source.Next()
				if err != nil {
					return err
				}
				d := src.(*oscillator.DataAdaptor)
				d.ForceCopy = forceCopy
				d.Memory = r.Memory
				const reps = 50
				r.Registry.Time("access", 0, func() {
					for i := 0; i < reps && err == nil; i++ {
						var mesh grid.Dataset
						if mesh, err = d.Mesh(false); err == nil {
							err = d.AddArray(mesh, grid.CellData, "data")
						}
						if i == 0 {
							extra = r.Memory.Named("adaptor/copy")
						}
						if err == nil {
							err = d.ReleaseData()
						}
					}
				})
				perStep = r.Registry.Timer("access").Total().Seconds() / reps
				return err
			})
			if err != nil {
				return nil, err
			}
			t.AddRow("real", fmt.Sprintf("%d^3", edge), mode, fmtS(perStep), fmtB(extra))
		}
	}
	t.AddNote("zero-copy wraps the simulation buffer (0 extra bytes); copy pays allocation + memcpy per access")
	return t, nil
}
