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
	core.RegisterFactory("index", func(attrs *core.Attrs, env *core.Env) (core.AnalysisAdaptor, error) {
		ix := NewBinnedIndex(env.Comm, attrs.String("array", "data"), attrs.Association(), attrs.Int("bins", 32, 1))
		ix.Memory = env.Memory
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
// The index for the most recent step is kept; Query answers selection
// cardinality and can enumerate local element ids exactly.
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
	step    int
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
	ix.lo, ix.hi, ix.n, ix.step, ix.built = lo, hi, n, d.TimeStep(), true
	return true, nil
}

// popcount sums the set bits of a bitmap.
func popcount(bm []uint64) int64 {
	var n int64
	for _, w := range bm {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// binOf returns the bin containing value v.
func (ix *BinnedIndex) binOf(v float64) int {
	if ix.hi <= ix.lo {
		return 0
	}
	b := int((v - ix.lo) / (ix.hi - ix.lo) * float64(ix.Bins))
	if b < 0 {
		b = 0
	}
	if b >= ix.Bins {
		b = ix.Bins - 1
	}
	return b
}

// CountAbove answers the global range query "how many elements exceed t"
// using the index: whole bins above the threshold bin are counted by bitmap
// popcount; only the single straddling bin would need a candidate check, so
// the result is reported as [lower, upper] bounds, FastBit-style. A global
// sum reduces the local bounds; valid on every rank.
func (ix *BinnedIndex) CountAbove(t float64) (lower, upper int64, err error) {
	if !ix.built {
		return 0, 0, fmt.Errorf("analysis: index: no step indexed yet")
	}
	tb := ix.binOf(t)
	var lowerL, upperL int64
	for b := tb + 1; b < ix.Bins; b++ {
		c := popcount(ix.bitmaps[b])
		lowerL += c
		upperL += c
	}
	upperL += popcount(ix.bitmaps[tb]) // the straddling bin: candidates
	if ix.Comm == nil {
		return lowerL, upperL, nil
	}
	out := make([]int64, 2)
	if err := mpi.Allreduce(ix.Comm, []int64{lowerL, upperL}, out, mpi.OpSum); err != nil {
		return 0, 0, err
	}
	return out[0], out[1], nil
}

// LocalSelection enumerates the local element ids in bins fully above t
// (the guaranteed hits of CountAbove's lower bound).
func (ix *BinnedIndex) LocalSelection(t float64) []int {
	if !ix.built {
		return nil
	}
	var out []int
	tb := ix.binOf(t)
	for b := tb + 1; b < ix.Bins; b++ {
		for wi, w := range ix.bitmaps[b] {
			for ; w != 0; w &= w - 1 {
				bit := trailingZeros(w)
				out = append(out, wi*64+bit)
			}
		}
	}
	return out
}

func trailingZeros(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

// IndexBytes reports the local index size — the "explorable extract" the
// post hoc side would store instead of the field itself.
func (ix *BinnedIndex) IndexBytes() int64 {
	if !ix.built {
		return 0
	}
	return int64(ix.Bins) * int64((ix.n+63)/64) * 8
}

// Finalize implements core.AnalysisAdaptor.
func (ix *BinnedIndex) Finalize() error {
	if ix.Memory != nil && ix.built {
		ix.Memory.FreeAll("index/bitmaps")
	}
	return nil
}
