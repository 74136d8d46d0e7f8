package analysis

import (
	"fmt"
	"math"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("index", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		ix := NewBinnedIndex(b.Comm, attrs.String("array", "data"), attrs.Association(), attrs.Int("bins", 32, 1))
		ix.Memory = b.Memory
		return ix, nil
	})
}

// BinnedIndex is an in situ indexing method in the FastBit tradition: while
// the data is still in memory, each rank builds a binned bitmap index of one
// scalar — per bin, a bitmap of the local elements whose value falls in the
// bin — so that *post hoc* range queries ("which cells exceed t?") touch
// only the bins straddling the threshold instead of rescanning the field.
// Indexing is one of the SDMAV operations the paper's terminology section
// lists alongside visualization and compression.
//
// The index for the most recent step is kept.
type BinnedIndex struct {
	Comm      *mpi.Comm
	ArrayName string
	Assoc     grid.Association
	Bins      int
	// Memory, when set, accounts for the bitmaps.
	Memory *metrics.Tracker

	// Per-step state (local).
	lo, hi  float64
	bitmaps [][]uint64 // bins x ceil(n/64)
	n       int
	built   bool
}

// NewBinnedIndex builds the analysis over the named array.
func NewBinnedIndex(c *mpi.Comm, name string, assoc grid.Association, bins int) *BinnedIndex {
	if bins <= 0 {
		panic(fmt.Sprintf("analysis: index bins must be positive, got %d", bins))
	}
	return &BinnedIndex{Comm: c, ArrayName: name, Assoc: assoc, Bins: bins}
}

// Execute implements core.AnalysisAdaptor: rebuild the index for the step.
func (ix *BinnedIndex) Execute(d core.DataAdaptor) (bool, error) {
	mesh, err := core.FetchArray(d, ix.Assoc, ix.ArrayName)
	if err != nil {
		return false, err
	}
	sources, err := ScalarSources(mesh, ix.Assoc, ix.ArrayName)
	if err != nil {
		return false, fmt.Errorf("analysis: index: %w", err)
	}
	// Global range via the usual two reductions.
	lo, hi := math.Inf(1), math.Inf(-1)
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
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
	}
	if ix.Comm != nil {
		gLo, gHi := []float64{lo}, []float64{hi}
		if err := mpi.AllreduceMinMax(ix.Comm, gLo, gHi); err != nil {
			return false, err
		}
		lo, hi = gLo[0], gHi[0]
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 0
	}

	n := TotalTuples(sources)
	words := (n + 63) / 64
	if ix.Memory != nil && ix.built {
		ix.Memory.FreeAll("index/bitmaps")
	}
	ix.bitmaps = make([][]uint64, ix.Bins)
	for b := range ix.bitmaps {
		ix.bitmaps[b] = make([]uint64, words)
	}
	if ix.Memory != nil {
		ix.Memory.Alloc("index/bitmaps", int64(ix.Bins)*int64(words)*8)
	}
	width := (hi - lo) / float64(ix.Bins)
	pos := 0
	for _, src := range sources {
		rd.Reset(src.Values, src.Ghost)
		n := src.Values.Tuples()
		for at := 0; at < n; at += array.BlockLen {
			end := min(at+array.BlockLen, n)
			vals, ghosts := rd.Values(at, end), rd.Ghosts(at, end)
			for i, v := range vals {
				if ghosts[i] != 0 {
					continue // ghosts never set a bit: queries see each cell once
				}
				b := 0
				if width > 0 {
					b = int((v - lo) / width)
					if b >= ix.Bins {
						b = ix.Bins - 1
					}
					if b < 0 {
						b = 0
					}
				}
				idx := pos + at + i
				ix.bitmaps[b][idx/64] |= 1 << (idx % 64)
			}
		}
		pos += n
	}
	ix.lo, ix.hi, ix.n, ix.built = lo, hi, n, true
	return true, nil
}

// Finalize implements core.AnalysisAdaptor.
func (ix *BinnedIndex) Finalize() error {
	if ix.Memory != nil && ix.built {
		ix.Memory.FreeAll("index/bitmaps")
	}
	return nil
}
