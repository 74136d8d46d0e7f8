package main

import (
	"math"
	"sort"

	"gosensei/internal/analysis"
	"gosensei/internal/grid"
	"gosensei/internal/mpi"
)

// insitu-stats: 64^3 oscillator -> core.Bridge -> histogram + temporal
// autocorrelation on an in-process mpi world. Kernel-bound; render, wire
// and disk do nothing here.

const (
	statsCells  = 64
	statsBins   = 10
	statsWindow = 10
	statsTopK   = 3
)

// corrAt is one autocorrelation extremum in decomposition-independent form:
// the value's bits and the cell's global linear index.
type corrAt struct {
	bits uint64
	cell int
}

// statsCapture is what one lifetime produced, for verification.
type statsCapture struct {
	total   int
	hist    []*analysis.HistogramResult // by 0-based step, rank 0's
	top     [][]analysis.Corr           // by delay-1, rank 0's after Finalize
	extents []grid.Extent               // by rank
	bufs    []int64                     // autocorrelation buffer bytes by rank
}

type statsPipeline struct {
	env *env
	ref *statsCapture
}

func (p *statsPipeline) plan(quick bool) plan {
	if quick {
		return plan{warm: 2, steps: 12, cycles: 3}
	}
	return plan{warm: warmSteps, steps: 120, cycles: 40}
}

func (p *statsPipeline) reference(total int) (*lifeOut, error) {
	out, capt, err := p.life(&runOpts{ranks: 1, steps: total})
	if err != nil {
		return nil, err
	}
	p.ref = capt
	return out, nil
}

func (p *statsPipeline) run(o *runOpts) (*lifeOut, error) {
	out, capt, err := p.life(o)
	if err != nil {
		return nil, err
	}
	p.verify(out, capt)
	_, sent := out.sent()
	out.bytesOut = float64(sent) / float64(o.steps)
	if o.tr != nil {
		spans := timedSpans(o.tr.all(), o)
		simLayerObs(out, spans, statsCells)
		out.observe("analysis.histogram_ms_p50", scaled(perStep(spans, 0, "analysis.histogram", nil), 1e-6)...)
		out.observe("analysis.autocorrelation_ms_p50", scaled(perStep(spans, 0, "analysis.autocorrelation", nil), 1e-6)...)
		var buf int64
		for _, b := range capt.bufs {
			buf += b
		}
		out.observe("analysis.autocorrelation_buffer_mb", float64(buf)/(1<<20))
	}
	return out, nil
}

// life runs one pipeline lifetime: world start, sim and analysis set-up,
// the step loop, finalize.
func (p *statsPipeline) life(o *runOpts) (*lifeOut, *statsCapture, error) {
	out := newLifeOut(o)
	capt := &statsCapture{
		total:   o.total(),
		hist:    make([]*analysis.HistogramResult, o.total()),
		extents: make([]grid.Extent, o.ranks),
		bufs:    make([]int64, o.ranks),
	}
	clk := o.clock()
	err := mpi.Run(o.ranks, func(c *mpi.Comm) error {
		r, err := newSimRank(p.env, o, clk, c, statsCells, out)
		if err != nil {
			return err
		}
		h := analysis.NewHistogram(c, "data", grid.CellData, statsBins)
		ac := analysis.NewAutocorrelation(c, "data", grid.CellData, statsWindow, statsTopK)
		r.add("histogram", "analysis", h)
		r.add("autocorrelation", "analysis", ac)
		capt.extents[c.Rank()] = r.sim.LocalCellExtent
		err = r.loop(func(k int) {
			if c.Rank() == 0 {
				capt.hist[k] = h.Last
			}
		}, func(k int) error { return r.probeCollectives(k) })
		if err != nil {
			return err
		}
		capt.bufs[c.Rank()] = ac.BufferBytes()
		if err := r.finalize(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			capt.top = ac.Top
		}
		return nil
	}, mpi.WithRecvTimeout(recvBudget))
	if err != nil {
		return nil, nil, err
	}
	return out, capt, nil
}

// verify holds a lifetime's outputs against the serial reference, bit for
// bit: one check per step's histogram, one per autocorrelation delay.
func (p *statsPipeline) verify(out *lifeOut, capt *statsCapture) {
	for k, h := range capt.hist {
		out.checks.expect(k < len(p.ref.hist) && histEqual(h, p.ref.hist[k]))
	}
	// The running correlations depend on how many steps were consumed, so
	// the top-k compares only between lifetimes of the reference's length.
	if capt.total != p.ref.total {
		return
	}
	for d := range p.ref.top {
		got := globalTop(capt.top[d], capt.extents, statsCells)
		want := globalTop(p.ref.top[d], p.ref.extents, statsCells)
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i] == want[i]
		}
		out.checks.expect(ok)
	}
}

func histEqual(a, b *analysis.HistogramResult) bool {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) ||
		math.Float64bits(a.Min) != math.Float64bits(b.Min) ||
		math.Float64bits(a.Max) != math.Float64bits(b.Max) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// globalTop maps (rank, local cell) extrema to global cells and orders them
// canonically, so two decompositions of the same field compare equal.
func globalTop(top []analysis.Corr, extents []grid.Extent, cells int) []corrAt {
	out := make([]corrAt, 0, len(top))
	for _, c := range top {
		if c.Rank < 0 || c.Rank >= len(extents) {
			return nil
		}
		e := extents[c.Rank]
		nx, ny := e[1]-e[0]+1, e[3]-e[2]+1
		i, j, k := e[0]+c.Cell%nx, e[2]+(c.Cell/nx)%ny, e[4]+c.Cell/(nx*ny)
		cell := (k*cells+j)*cells + i
		if c.Value == 0 {
			cell = -1 // zeros tie; which cell carries one is decomposition-dependent
		}
		out = append(out, corrAt{math.Float64bits(c.Value), cell})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].bits != out[b].bits {
			return out[a].bits > out[b].bits
		}
		return out[a].cell < out[b].cell
	})
	return out
}
