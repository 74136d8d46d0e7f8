// Package analysis implements the in situ analysis methods the SC16 SENSEI
// paper couples to the oscillator miniapp and the science codes: a parallel
// histogram (the simple, memory-light method) and a temporal autocorrelation
// (the time-dependent method that must cache a window of past steps).
//
// Both are written purely against core.DataAdaptor, so the same code runs
// directly in situ, behind Catalyst/Libsim wrappers, or at the far end of an
// ADIOS staging transport — the paper's "write once, use anywhere" property.
package analysis

import (
	"fmt"
	"io"
	"math"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("histogram", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		h := NewHistogram(b.Comm, attrs.String("array", "data"), attrs.Association(), attrs.Int("bins", 10, 1))
		h.Memory = b.Memory
		return h, nil
	})
}

// HistogramResult is the outcome of one histogram execution, valid on rank 0.
type HistogramResult struct {
	Step   int
	Min    float64
	Max    float64
	Counts []int64
}

// String renders the result on one line, the range to round-trip precision:
// two runs agree on a histogram exactly when they print the same line.
func (r *HistogramResult) String() string {
	return fmt.Sprintf("step=%d min=%.17g max=%.17g counts=%v", r.Step, r.Min, r.Max, r.Counts)
}

// Bin returns the inclusive value range of bin i.
func (r *HistogramResult) Bin(i int) (lo, hi float64) {
	w := (r.Max - r.Min) / float64(len(r.Counts))
	return r.Min + float64(i)*w, r.Min + float64(i+1)*w
}

// Histogram computes a global histogram of one mesh array per step: two
// allreduce operations establish the global [min, max], each rank bins its
// local (non-ghost) values, and the bins are reduced to rank 0. The only
// extra storage is proportional to the bin count, as the paper notes.
type Histogram struct {
	Comm      *mpi.Comm
	ArrayName string
	Assoc     grid.Association
	Bins      int
	// Memory, when set, accounts for the bin storage.
	Memory *metrics.Tracker

	// Last holds the most recent result (rank 0 only).
	Last *HistogramResult
}

// NewHistogram builds a histogram analysis over the named array.
func NewHistogram(c *mpi.Comm, name string, assoc grid.Association, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("analysis: histogram bins must be positive, got %d", bins))
	}
	return &Histogram{Comm: c, ArrayName: name, Assoc: assoc, Bins: bins}
}

// Report implements core.Reporter: the last step's histogram.
func (h *Histogram) Report(w io.Writer) {
	if h.Last != nil {
		fmt.Fprintf(w, "histogram %s: %s\n", h.ArrayName, h.Last)
	}
}

// StagedHistogramSource is implemented by data adaptors that carry a
// pre-binned histogram partial instead of (or alongside) mesh data — the in
// transit extract-shipping path, where writers bin against the globally
// agreed range before the wire and the endpoint only merges. The adaptor
// reports ok only when its partial matches the requested array, association,
// and bin count.
type StagedHistogramSource interface {
	StagedHistogram(name string, assoc grid.Association, bins int) (min, max float64, counts []int64, ok bool)
}

// Execute implements core.AnalysisAdaptor.
func (h *Histogram) Execute(d core.DataAdaptor) (bool, error) {
	// An adaptor staging a matching pre-binned partial short-circuits the
	// mesh walk: the writers already agreed on the global range (allreduce
	// over the writer group) and binned with the same kernel, so merging
	// partials is bit-identical to binning the full data here.
	if sh, ok := d.(StagedHistogramSource); ok {
		if lo, hi, counts, ok := sh.StagedHistogram(h.ArrayName, h.Assoc, h.Bins); ok {
			res, err := h.mergeStaged(d.TimeStep(), lo, hi, counts)
			if err != nil {
				return false, err
			}
			if h.Comm == nil || h.Comm.Rank() == 0 {
				h.Last = res
			}
			return true, nil
		}
	}
	mesh, err := core.FetchArray(d, h.Assoc, h.ArrayName)
	if err != nil {
		return false, err
	}
	res, err := h.Compute(d.TimeStep(), mesh)
	if err != nil {
		return false, err
	}
	if h.Comm == nil || h.Comm.Rank() == 0 {
		h.Last = res
	}
	return true, nil
}

// mergeStaged finishes a histogram from pre-binned partials: the same two
// reductions Compute performs (min/max agreement, count sum to root), over
// exact operations, so the result matches the full-data path bit for bit.
func (h *Histogram) mergeStaged(step int, lo, hi float64, counts []int64) (*HistogramResult, error) {
	if h.Comm != nil {
		gLo, gHi := []float64{lo}, []float64{hi}
		if err := mpi.AllreduceMinMax(h.Comm, gLo, gHi); err != nil {
			return nil, err
		}
		lo, hi = gLo[0], gHi[0]
		global := make([]int64, len(counts))
		if err := mpi.Reduce(h.Comm, counts, global, mpi.OpSum, 0); err != nil {
			return nil, err
		}
		counts = global
	}
	return &HistogramResult{Step: step, Min: lo, Max: hi, Counts: counts}, nil
}

// Compute runs the histogram over an already-populated mesh (a single
// dataset or a MultiBlock, as delivered by fan-in staging endpoints). It is
// exposed separately so post hoc and in transit paths can reuse it. The
// result is valid on rank 0 (and on every rank when Comm is nil, the serial
// case).
func (h *Histogram) Compute(step int, mesh grid.Dataset) (*HistogramResult, error) {
	lo, hi, err := h.GlobalRange(mesh)
	if err != nil {
		return nil, err
	}
	counts, err := h.PartialCounts(mesh, lo, hi)
	if err != nil {
		return nil, err
	}
	// Reduce histograms to the root.
	if h.Comm != nil {
		global := make([]int64, h.Bins)
		if err := mpi.Reduce(h.Comm, counts, global, mpi.OpSum, 0); err != nil {
			return nil, err
		}
		counts = global
	}
	return &HistogramResult{Step: step, Min: lo, Max: hi, Counts: counts}, nil
}

// GlobalRange computes the [min, max] of the target array over all ranks of
// Comm, skipping ghost values. Exposed separately so the in transit
// extract path can agree on bin edges across the writer group before
// binning — the agreement is an exact min/max reduction, which is what
// makes writer-side binning bit-identical to endpoint-side binning.
func (h *Histogram) GlobalRange(mesh grid.Dataset) (lo, hi float64, err error) {
	sources, err := ScalarSources(mesh, h.Assoc, h.ArrayName)
	if err != nil {
		return 0, 0, fmt.Errorf("analysis: histogram: %w", err)
	}
	// Local extrema over non-ghost values.
	lo, hi = math.Inf(1), math.Inf(-1)
	var rd array.Reader
	for _, src := range sources {
		rd.Reset(src.Values, src.Ghost)
		for at, n := 0, src.Values.Tuples(); at < n; at += array.BlockLen {
			end := min(at+array.BlockLen, n)
			vals, ghosts := rd.Values(at, end), rd.Ghosts(at, end)
			for i, v := range vals {
				if ghosts[i] != 0 {
					continue
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
	}
	// One fused global reduction covers both the min and the max (one
	// collective round per step instead of two).
	if h.Comm != nil {
		gLo, gHi := []float64{lo}, []float64{hi}
		if err := mpi.AllreduceMinMax(h.Comm, gLo, gHi); err != nil {
			return 0, 0, err
		}
		lo, hi = gLo[0], gHi[0]
	}
	if math.IsInf(lo, 1) { // no non-ghost data anywhere
		lo, hi = 0, 0
	}
	return lo, hi, nil
}

// PartialCounts bins this rank's non-ghost values against the given global
// range, with no reduction: the caller either sums the partials itself (the
// extract-shipping endpoint) or reduces them to the root (Compute). Every
// path bins with this one kernel, so counts agree bit for bit wherever the
// binning runs.
func (h *Histogram) PartialCounts(mesh grid.Dataset, lo, hi float64) ([]int64, error) {
	sources, err := ScalarSources(mesh, h.Assoc, h.ArrayName)
	if err != nil {
		return nil, fmt.Errorf("analysis: histogram: %w", err)
	}
	counts := make([]int64, h.Bins)
	if h.Memory != nil {
		h.Memory.Alloc("histogram/bins", int64(h.Bins)*8)
		defer h.Memory.FreeAll("histogram/bins")
	}
	// One division up front: the inner loop bins by multiply-compare, which
	// replaces a per-sample divide (the histogram inner loop runs once per
	// cell per step, so the constant factor matters at miniapp scale).
	width := (hi - lo) / float64(h.Bins)
	invWidth := 0.0
	if width > 0 {
		invWidth = 1 / width
	}
	maxBin := h.Bins - 1
	var rd array.Reader
	for _, src := range sources {
		rd.Reset(src.Values, src.Ghost)
		for at, n := 0, src.Values.Tuples(); at < n; at += array.BlockLen {
			end := min(at+array.BlockLen, n)
			vals, ghosts := rd.Values(at, end), rd.Ghosts(at, end)
			for i, v := range vals {
				if ghosts[i] != 0 {
					continue
				}
				b := 0
				if invWidth > 0 {
					b = int((v - lo) * invWidth)
					if b > maxBin {
						b = maxBin
					}
					if b < 0 {
						b = 0
					}
				}
				counts[b]++
			}
		}
	}
	return counts, nil
}

// Finalize implements core.AnalysisAdaptor; the histogram holds no state.
func (h *Histogram) Finalize() error { return nil }

// SerialHistogram bins the values of one array without any communication;
// it is the reference the parallel path is tested against and the kernel the
// post hoc tool uses.
//
//lint:ignore unreferenced TestParallelHistogramMatchesSerial compares the parallel histogram against this serial oracle
func SerialHistogram(a array.Array, ghost array.Array, bins int) *HistogramResult {
	h := &Histogram{ArrayName: a.Name(), Assoc: grid.CellData, Bins: bins}
	mesh := grid.NewImageData(grid.NewExtent3D(2, 2, 2)) // container only
	a2 := a.Clone()
	a2.SetName(h.ArrayName)
	mesh.Attributes(grid.CellData).Add(a2)
	if ghost != nil {
		g2 := ghost.Clone()
		g2.SetName(grid.GhostArrayName)
		mesh.Attributes(grid.CellData).Add(g2)
	}
	res, err := h.Compute(0, mesh)
	if err != nil {
		panic(err) // cannot happen: array is attached above
	}
	return res
}
