package analysis

import (
	"fmt"
	"io"
	"sort"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("autocorrelation", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		a := NewAutocorrelation(b.Comm, attrs.String("array", "data"), attrs.Association(),
			attrs.Int("window", 10, 1), attrs.Int("k-max", 3, 1))
		a.Memory = b.Memory
		return a, nil
	})
}

// Corr is one autocorrelation extremum: the accumulated correlation of a
// cell with itself at a fixed delay, plus where the cell lives.
type Corr struct {
	Value float64
	Rank  int // world rank owning the cell
	Cell  int // local linear cell index
}

// Autocorrelation is the paper's prototypical time-dependent analysis. For a
// per-cell signal f and integer delays t' in [1, Window], it accumulates
// sum_t f(t)·f(t−t') in a per-cell running-correlation window, feeding from a
// circular buffer of the last Window steps. Both buffers are O(Window·N³)
// per rank — the reason the paper's post hoc autocorrelation runs needed
// twice the nodes. Finalize performs a global reduction to find the top-K
// correlations for every delay; for periodic oscillators these identify the
// oscillator centers.
type Autocorrelation struct {
	Comm      *mpi.Comm
	ArrayName string
	Assoc     grid.Association
	Window    int
	K         int
	// Memory, when set, accounts for the circular buffers.
	Memory *metrics.Tracker

	cells int         // local cell count, fixed after first step
	buf   [][]float64 // circular history: Window slices of length cells
	corr  [][]float64 // running correlations: Window slices (delay d+1)
	head  int         // next write position in buf
	steps int         // number of steps consumed

	// Top holds, per delay d (index d-1), the global top-K correlations in
	// descending order. Valid on rank 0 after Finalize.
	Top [][]Corr
}

// NewAutocorrelation builds the analysis for the named array.
func NewAutocorrelation(c *mpi.Comm, name string, assoc grid.Association, window, k int) *Autocorrelation {
	if window <= 0 || k <= 0 {
		panic(fmt.Sprintf("analysis: autocorrelation window=%d k=%d must be positive", window, k))
	}
	return &Autocorrelation{Comm: c, ArrayName: name, Assoc: assoc, Window: window, K: k}
}

// Execute implements core.AnalysisAdaptor.
func (ac *Autocorrelation) Execute(d core.DataAdaptor) (bool, error) {
	mesh, err := core.FetchArray(d, ac.Assoc, ac.ArrayName)
	if err != nil {
		return false, err
	}
	sources, err := ScalarSources(mesh, ac.Assoc, ac.ArrayName)
	if err != nil {
		return false, fmt.Errorf("analysis: autocorrelation: %w", err)
	}
	for _, src := range sources {
		if src.Values.Components() != 1 {
			return false, fmt.Errorf("analysis: autocorrelation needs a scalar array, %q has %d components", ac.ArrayName, src.Values.Components())
		}
	}
	n := TotalTuples(sources)
	if ac.buf == nil {
		ac.allocate(n)
	} else if n != ac.cells {
		return false, fmt.Errorf("analysis: autocorrelation: cell count changed from %d to %d", ac.cells, n)
	}

	// Update running correlations against the circular history, oldest
	// delays limited by how many steps we have seen, then push the new values
	// into the circular buffer. The cell index runs over the concatenation of
	// sources (stable across steps: block order is fixed by the adaptor).
	// The field is read once: block by block, every delay's correlation takes
	// the block while it is in cache, and only then does the block overwrite
	// its slot — the oldest history, which the longest delay has just read.
	// Each cell's sums keep their order, so the result does not depend on the
	// blocking.
	maxDelay := min(ac.steps, ac.Window)
	slot := ac.buf[ac.head]
	var rd array.Reader
	off := 0
	for _, src := range sources {
		rd.Reset(src.Values, nil)
		n := src.Values.Tuples()
		for at := 0; at < n; at += array.BlockLen {
			cur := rd.Values(at, min(at+array.BlockLen, n))
			lo := off + at
			for delay := 1; delay <= maxDelay; delay++ {
				hist := ac.buf[(ac.head-delay+ac.Window*2)%ac.Window][lo:][:len(cur)]
				dst := ac.corr[delay-1][lo:][:len(cur)]
				for i, v := range cur {
					dst[i] += v * hist[i]
				}
			}
			copy(slot[lo:], cur)
		}
		off += n
	}
	ac.head = (ac.head + 1) % ac.Window
	ac.steps++
	return true, nil
}

func (ac *Autocorrelation) allocate(n int) {
	ac.cells = n
	ac.buf = make([][]float64, ac.Window)
	ac.corr = make([][]float64, ac.Window)
	for i := 0; i < ac.Window; i++ {
		ac.buf[i] = make([]float64, n)
		ac.corr[i] = make([]float64, n)
	}
	if ac.Memory != nil {
		ac.Memory.Alloc("autocorrelation/history", int64(ac.Window)*int64(n)*8)
		ac.Memory.Alloc("autocorrelation/correlations", int64(ac.Window)*int64(n)*8)
	}
}

// Finalize implements core.AnalysisAdaptor: every rank finds its local top-K
// per delay; the tuples are gathered to rank 0 and merged. This global
// reduction is the non-negligible finalization cost visible in the paper's
// one-time-cost figure (Fig. 5).
func (ac *Autocorrelation) Finalize() error {
	if ac.buf == nil {
		return nil // never executed
	}
	ac.Top = make([][]Corr, ac.Window)
	rank := 0
	if ac.Comm != nil {
		rank = ac.Comm.WorldRank()
	}
	for delay := 1; delay <= ac.Window; delay++ {
		local := topK(ac.corr[delay-1], ac.K, rank)
		merged := local
		if ac.Comm != nil {
			flat := make([]float64, 0, len(local)*3)
			for _, c := range local {
				flat = append(flat, c.Value, float64(c.Rank), float64(c.Cell))
			}
			parts, err := mpi.Gatherv(ac.Comm, flat, 0)
			if err != nil {
				return fmt.Errorf("analysis: autocorrelation finalize: %w", err)
			}
			if ac.Comm.Rank() == 0 {
				merged = merged[:0]
				for _, p := range parts {
					for i := 0; i+2 < len(p); i += 3 {
						merged = append(merged, Corr{Value: p[i], Rank: int(p[i+1]), Cell: int(p[i+2])})
					}
				}
				sort.Slice(merged, func(i, j int) bool { return merged[i].Value > merged[j].Value })
				if len(merged) > ac.K {
					merged = merged[:ac.K]
				}
			} else {
				merged = nil
			}
		}
		ac.Top[delay-1] = merged
	}
	return nil
}

// Report implements core.Reporter: per delay, the global top-K correlations
// as value@rank/cell.
func (ac *Autocorrelation) Report(w io.Writer) {
	for d, top := range ac.Top {
		fmt.Fprintf(w, "autocorrelation %s: delay=%d", ac.ArrayName, d+1)
		for _, c := range top {
			fmt.Fprintf(w, " %.17g@%d/%d", c.Value, c.Rank, c.Cell)
		}
		fmt.Fprintln(w)
	}
}

// topK returns the k largest values of v (descending) tagged with rank/index.
func topK(v []float64, k int, rank int) []Corr {
	if k > len(v) {
		k = len(v)
	}
	out := make([]Corr, 0, k)
	for i, x := range v {
		if len(out) < k {
			out = append(out, Corr{Value: x, Rank: rank, Cell: i})
			if len(out) == k {
				sort.Slice(out, func(a, b int) bool { return out[a].Value > out[b].Value })
			}
			continue
		}
		if x > out[k-1].Value {
			out[k-1] = Corr{Value: x, Rank: rank, Cell: i}
			for j := k - 1; j > 0 && out[j].Value > out[j-1].Value; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	if len(out) < k {
		sort.Slice(out, func(a, b int) bool { return out[a].Value > out[b].Value })
	}
	return out
}

// BufferBytes returns the tracked size of the analysis's two windows,
// O(2·Window·cells) once allocated.
func (ac *Autocorrelation) BufferBytes() int64 {
	if ac.buf == nil {
		return 0
	}
	return 2 * int64(ac.Window) * int64(ac.cells) * 8
}
