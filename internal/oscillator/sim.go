package oscillator

import (
	"fmt"
	"math"
	"sync/atomic"

	"gosensei/internal/array"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/parallel"
)

// Config describes one miniapp run.
type Config struct {
	// GlobalCells is the global grid size in cells per axis.
	GlobalCells [3]int
	// DT is the time resolution.
	DT float64
	// Steps is the number of time steps.
	Steps int
	// Oscillators is the (already broadcast) source list.
	Oscillators []Oscillator
	// Threads bounds the intra-rank workers for the cell loop; 0 derives a
	// per-rank budget from the process thread budget and the world size.
	Threads int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	for ax, n := range c.GlobalCells {
		if n <= 0 {
			return fmt.Errorf("oscillator: global cells axis %d must be positive, got %d", ax, n)
		}
	}
	if c.DT <= 0 {
		return fmt.Errorf("oscillator: dt must be positive, got %v", c.DT)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("oscillator: steps must be positive, got %d", c.Steps)
	}
	if len(c.Oscillators) == 0 {
		return fmt.Errorf("oscillator: need at least one oscillator")
	}
	for i, o := range c.Oscillators {
		if err := o.validate(); err != nil {
			return fmt.Errorf("oscillator: oscillator %d: %w", i, err)
		}
	}
	return nil
}

// CheckRanks is the one rule of which world sizes the grid can feed: every
// rank's block of the cell decomposition must hold a cell. NewSim applies
// it, and so does a launcher before any rank exists.
func (c *Config) CheckRanks(n int) error {
	for _, b := range decomposeCells(c.globalCells(), n) {
		if !b.Valid() {
			return fmt.Errorf("oscillator: grid %v too small for %d ranks (some blocks empty)", c.GlobalCells, n)
		}
	}
	return nil
}

// globalCells is the extent of every cell: [0, nx-1] x ...
func (c *Config) globalCells() grid.Extent {
	return grid.Extent{0, c.GlobalCells[0] - 1, 0, c.GlobalCells[1] - 1, 0, c.GlobalCells[2] - 1}
}

// Sim is the per-rank state of the miniapp: a block of the regular cell
// decomposition and the cell-centered "data" array.
type Sim struct {
	Comm *mpi.Comm
	Cfg  Config
	// LocalCellExtent is this rank's owned cell block.
	LocalCellExtent grid.Extent
	// Data holds the local cell values, k-major (i fastest).
	Data []float64

	step    int
	time    float64
	workers int
	// Per-step hoisted oscillator constants: the time factor depends only on
	// t and the Gaussian denominator 2σ² only on the deck, yet the seed code
	// recomputed both for every cell. amps is refreshed each Step; twoR2 once.
	amps  []float64
	twoR2 []float64
	// The Gaussians depend only on the deck, so they are evaluated once. The
	// first Step computes each exactly and records corr, the int16 ulp
	// distance from the separable product ex[i]·(ey[j]·ez[k]) of per-axis
	// tables; later Steps rebuild every exact value from the product and its
	// correction without an exp. Each axis table is oscillator-major
	// (ex[o*nx+i]); corr is, per cell row, one run of nx per oscillator.
	ex, ey, ez []float64
	corr       []int16
}

// NewSim builds the per-rank simulation state: the local block of a regular
// decomposition of the global cell grid. mem may be nil.
func NewSim(c *mpi.Comm, cfg Config, mem *metrics.Tracker) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		mem = metrics.NewTracker()
	}
	// Every rank applies the same rule, so all fail together instead of some
	// proceeding into collectives the others never enter.
	if err := cfg.CheckRanks(c.Size()); err != nil {
		return nil, err
	}
	// Decompose the cell grid directly: each rank owns a disjoint cell block.
	global := cfg.globalCells()
	local := decomposeCells(global, c.Size())[c.Rank()]
	nx, ny, nz := local.Dims() // here Dims counts cells since extents are cell extents
	n := nx * ny * nz
	m := len(cfg.Oscillators)
	s := &Sim{
		Comm:            c,
		Cfg:             cfg,
		LocalCellExtent: local,
		Data:            make([]float64, n),
		workers:         parallel.Workers(cfg.Threads, c.Size()),
		amps:            make([]float64, m),
		twoR2:           make([]float64, m),
		ex:              make([]float64, m*nx),
		ey:              make([]float64, m*ny),
		ez:              make([]float64, m*nz),
		corr:            make([]int16, m*n),
	}
	for i, o := range cfg.Oscillators {
		// Same association as the seed's Evaluate ((2*R)*R) so the division
		// below is bit-identical to the original per-cell expression.
		s.twoR2[i] = 2 * o.Radius * o.Radius
	}
	mem.Alloc("oscillator/data", int64(n)*8)
	mem.Alloc("oscillator/gaussians", int64(m*n)*2+int64(m*(nx+ny+nz))*8)
	return s, nil
}

// decomposeCells partitions an inclusive cell extent into disjoint blocks.
// Unlike grid.DecomposeRegular (which splits point extents with shared
// boundaries), cell ownership must not overlap.
func decomposeCells(global grid.Extent, n int) []grid.Extent {
	// A cell extent [0, c-1] corresponds to a point extent [0, c]; reuse the
	// point decomposition and convert each block's points [lo, hi] to owned
	// cells [lo, hi-1].
	pts := grid.Extent{global[0], global[1] + 1, global[2], global[3] + 1, global[4], global[5] + 1}
	parts := grid.DecomposeRegular(pts, n)
	out := make([]grid.Extent, len(parts))
	for i, p := range parts {
		out[i] = grid.Extent{p[0], p[1] - 1, p[2], p[3] - 1, p[4], p[5] - 1}
	}
	return out
}

// Step advances the simulation one time step: every local cell receives the
// sum of all oscillator contributions evaluated at the cell center, added in
// oscillator order. The first Step evaluates every Gaussian exactly and fills
// the cache; every later Step rebuilds the same Gaussians from it, so each
// step's field is bit-identical to the direct sum. The cell loop is
// band-partitioned over k-slabs across the rank's worker budget; each slab
// writes a disjoint range of Data, so the result is bit-identical at any
// worker count.
func (s *Sim) Step() error {
	t := s.time
	for i, o := range s.Cfg.Oscillators {
		s.amps[i] = o.Amplitude(t)
	}
	// A first Step that failed did not advance, so the next one refills.
	if s.step == 0 {
		if err := s.stepExact(); err != nil {
			return err
		}
	} else {
		s.stepCached()
	}
	s.step++
	s.time += s.Cfg.DT
	return nil
}

// stepExact is the first Step. It evaluates each Gaussian with the direct
// per-cell expression, fills the axis tables, and stores each exact value's
// correction against their product. A correction outside int16 is an error
// naming the lowest such cell and oscillator; the Data it writes is exact
// either way.
func (s *Sim) stepExact() error {
	e := s.LocalCellExtent
	nx, ny, nz := e.Dims()
	oscs := s.Cfg.Oscillators
	m := len(oscs)
	for oi := range oscs {
		c, twoR2 := oscs[oi].Center, s.twoR2[oi]
		axisGaussians(s.ex[oi*nx:(oi+1)*nx], e[0], c[0], twoR2)
		axisGaussians(s.ey[oi*ny:(oi+1)*ny], e[2], c[1], twoR2)
		axisGaussians(s.ez[oi*nz:(oi+1)*nz], e[4], c[2], twoR2)
	}
	var bad atomic.Int64 // lowest cell*m+oscillator whose correction overflowed
	bad.Store(math.MaxInt64)
	parallel.For(s.workers, nz, 1, func(klo, khi int) {
		for kk := klo; kk < khi; kk++ {
			z := float64(e[4]+kk) + 0.5
			for jj := 0; jj < ny; jj++ {
				y := float64(e[2]+jj) + 0.5
				row := (kk*ny + jj) * nx
				data := s.Data[row : row+nx]
				clear(data)
				for oi := range oscs {
					o := &oscs[oi]
					eyz := s.ey[oi*ny+jj] * s.ez[oi*nz+kk]
					ex := s.ex[oi*nx : (oi+1)*nx]
					corr := s.corr[row*m+oi*nx : row*m+(oi+1)*nx]
					for ii := range data {
						x := float64(e[0]+ii) + 0.5
						dx := x - o.Center[0]
						dy := y - o.Center[1]
						dz := z - o.Center[2]
						d2 := dx*dx + dy*dy + dz*dz
						g := math.Exp(-d2 / s.twoR2[oi])
						data[ii] += s.amps[oi] * g
						d := int64(math.Float64bits(g) - math.Float64bits(ex[ii]*eyz))
						if d != int64(int16(d)) {
							lowerTo(&bad, int64((row+ii)*m+oi))
						}
						corr[ii] = int16(d)
					}
				}
			}
		}
	})
	if f := bad.Load(); f != math.MaxInt64 {
		cell, oi := int(f)/m, int(f)%m
		return fmt.Errorf("oscillator: oscillator %d at cell (%d,%d,%d): Gaussian is over 32767 ulps from its separable product",
			oi, e[0]+cell%nx, e[2]+cell/nx%ny, e[4]+cell/(nx*ny))
	}
	return nil
}

// stepCached is every Step after the first: per cell and oscillator one
// product, the correction added to its bits, and one multiply-add.
func (s *Sim) stepCached() {
	nx, ny, nz := s.LocalCellExtent.Dims()
	m := len(s.amps)
	parallel.For(s.workers, nz, 1, func(klo, khi int) {
		for kk := klo; kk < khi; kk++ {
			for jj := 0; jj < ny; jj++ {
				row := (kk*ny + jj) * nx
				data := s.Data[row : row+nx]
				clear(data)
				for oi, a := range s.amps {
					eyz := s.ey[oi*ny+jj] * s.ez[oi*nz+kk]
					ex := s.ex[oi*nx : (oi+1)*nx]
					corr := s.corr[row*m+oi*nx : row*m+(oi+1)*nx]
					ex, corr = ex[:len(data)], corr[:len(data)] // no bounds checks below
					for ii := range data {
						g := math.Float64frombits(math.Float64bits(ex[ii]*eyz) + uint64(corr[ii]))
						data[ii] += a * g
					}
				}
			}
		}
	})
}

// axisGaussians fills dst[i] with exp(-d²/twoR2) for the cell centers
// lo+i+0.5 at distance d from c along one axis.
func axisGaussians(dst []float64, lo int, c, twoR2 float64) {
	for i := range dst {
		d := float64(lo+i) + 0.5 - c
		dst[i] = math.Exp(-(d * d) / twoR2)
	}
}

// lowerTo stores v in a if v is lower than what a holds.
func lowerTo(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StepIndex returns the number of completed steps.
func (s *Sim) StepIndex() int { return s.step }

// Time returns the current simulation time.
func (s *Sim) Time() float64 { return s.time }

// Mesh returns the local block as image data whose cell extent matches the
// rank's owned cells. The cell data array is NOT attached; that is the data
// adaptor's job (and keeping it lazy is the point of the SENSEI design).
func (s *Sim) Mesh() *grid.ImageData {
	// Convert the owned cell extent to a point extent.
	e := s.LocalCellExtent
	img := grid.NewImageData(grid.Extent{e[0], e[1] + 1, e[2], e[3] + 1, e[4], e[5] + 1})
	return img
}

// WrapData returns the local cell data as a zero-copy array named "data".
func (s *Sim) WrapData() *array.Typed[float64] {
	return array.WrapAOS("data", 1, s.Data)
}
