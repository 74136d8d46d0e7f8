package iosim

import (
	"fmt"
	"io"

	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("histogram-replay", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		dir := attrs.String("dir", "")
		if dir == "" {
			return nil, fmt.Errorf("iosim: histogram-replay needs a dir attribute")
		}
		r := NewHistogramReplay(b.Comm, dir, attrs.String("array", "data"), attrs.Association(), attrs.Int("bins", 10, 1))
		r.Faults = b.Faults.IOPlan()
		return r, nil
	})
}

// HistogramReplay is the post hoc route for a routed histogram analysis:
// Execute writes every rank's block to Dir (the traditional file-per-process
// producer, same format as BlockWriter) and immediately replays the step —
// rank 0 reads all blocks back and computes the histogram serially — so a
// routed pipeline's analysis output stays complete no matter which steps the
// router sent through storage. The serial replay is bit-identical to the in
// situ histogram because min/max and int64 count reductions are exact and
// the binning kernel is shared (the property posthocRun's metamorphic suite
// already pins).
type HistogramReplay struct {
	Comm *mpi.Comm
	Dir  string
	// ArrayName, Assoc, Bins mirror analysis.NewHistogram's parameters.
	ArrayName string
	Assoc     grid.Association
	Bins      int

	// Results accumulates the replayed per-step results (rank 0 only).
	Results []*analysis.HistogramResult
	// Last is the most recent replayed result (rank 0 only).
	Last *analysis.HistogramResult
	// Faults is consulted on every block-file attempt, the write and the
	// read-back; nil injects nothing.
	Faults FaultInjector

	// BytesWritten is the cumulative storage odometer: the total bytes all
	// ranks wrote, identical on every rank (it is agreed collectively), so
	// a StepMeter can difference it for per-step storage cost.
	BytesWritten int64
}

// NewHistogramReplay builds the post hoc route writing into dir.
func NewHistogramReplay(c *mpi.Comm, dir, array string, assoc grid.Association, bins int) *HistogramReplay {
	return &HistogramReplay{Comm: c, Dir: dir, ArrayName: array, Assoc: assoc, Bins: bins}
}

// Execute implements core.AnalysisAdaptor: write this rank's block, agree on
// the step's storage bytes (which doubles as the write barrier), then replay
// the step serially on rank 0.
func (r *HistogramReplay) Execute(d core.DataAdaptor) (bool, error) {
	mesh, err := core.FetchArray(d, r.Assoc, r.ArrayName)
	if err != nil {
		return false, err
	}
	img, ok := mesh.(*grid.ImageData)
	if !ok {
		return false, fmt.Errorf("iosim: histogram replay supports structured data, got %v", mesh.Kind())
	}
	rank, size := 0, 1
	if r.Comm != nil {
		rank, size = r.Comm.Rank(), r.Comm.Size()
	}
	n, err := WriteBlockFile(r.Dir, rank, img, d.TimeStep(), d.Time(), r.Faults)
	if err != nil {
		return false, err
	}
	total := n
	if r.Comm != nil && size > 1 {
		// The sum-reduce both totals the step's bytes and guarantees every
		// rank's block is on disk before the read-back below.
		recv := make([]int64, 1)
		if err := mpi.Allreduce(r.Comm, []int64{n}, recv, mpi.OpSum); err != nil {
			return false, err
		}
		total = recv[0]
	}
	r.BytesWritten += total

	if rank == 0 {
		mb, _, err := ReadStep(r.Dir, d.TimeStep(), 0, 1, size, r.Faults)
		if err != nil {
			return false, err
		}
		h := analysis.NewHistogram(nil, r.ArrayName, r.Assoc, r.Bins)
		res, err := h.Compute(d.TimeStep(), mb)
		if err != nil {
			return false, err
		}
		r.Last = res
		r.Results = append(r.Results, res)
	}
	return true, nil
}

// Finalize implements core.AnalysisAdaptor.
func (r *HistogramReplay) Finalize() error { return nil }

// StorageBytes is the odometer a routed analysis meters its post hoc route
// by: BytesWritten.
func (r *HistogramReplay) StorageBytes() int64 { return r.BytesWritten }

// Report implements core.Reporter: the last replayed step's histogram.
func (r *HistogramReplay) Report(w io.Writer) {
	if r.Last != nil {
		fmt.Fprintf(w, "histogram-replay %s: %s\n", r.ArrayName, r.Last)
	}
}

// Replay is the post hoc data source: the steps a vtk-writer (or the
// Fig. 10 harness) stored under a directory, read back one at a time. Reader
// rank r of P serves writers r, r+P, … of each step as one MultiBlock, so
// any reader count replays any writer count; the reads are timed as
// "replay::read". The steps and the writer count are ListSteps'.
type Replay struct {
	comm    *mpi.Comm
	reg     *metrics.Registry
	dir     string
	steps   []int
	writers int
	faults  FaultInjector
	next    int
	staged  core.StagedDataAdaptor
}

// NewReplay opens the source of one reader rank; faults is consulted on
// every block read, and nil injects nothing.
func NewReplay(c *mpi.Comm, reg *metrics.Registry, dir string, steps []int, writers int, faults FaultInjector) *Replay {
	return &Replay{comm: c, reg: reg, dir: dir, steps: steps, writers: writers, faults: faults}
}

// Next implements core.Source.
func (r *Replay) Next() (core.DataAdaptor, error) {
	if r.next == len(r.steps) {
		return nil, nil
	}
	step := r.steps[r.next]
	r.next++
	var (
		mb  *grid.MultiBlock
		tm  float64
		err error
	)
	r.reg.Time("replay::read", step, func() {
		mb, tm, err = ReadStep(r.dir, step, r.comm.Rank(), r.comm.Size(), r.writers, r.faults)
	})
	if err != nil {
		return nil, err
	}
	r.staged.Data = mb
	r.staged.SetStep(step, tm)
	return &r.staged, nil
}
