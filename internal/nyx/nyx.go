// Package nyx implements the Nyx proxy of this reproduction: a particle-mesh
// (PM) gravity code standing in for the BoxLib-based cosmology code of the
// paper's §4.2.3, which ran 1024³-4096³ Lyman-alpha forest simulations on
// Cori with SENSEI histogram and slice analyses.
//
// Substitution note (see DESIGN.md): Nyx couples AMR hydrodynamics to
// N-body dark matter; this proxy keeps the N-body PM core — cloud-in-cell
// deposit, an iterative periodic Poisson solve, force interpolation, and
// leapfrog integration with slab decomposition and particle migration. The
// paper's Fig. 17 finding ("in situ analysis time is negligible compared to
// solution time") requires exactly this: a genuinely heavy solver step next
// to a cheap histogram/slice, with ghost-cell blanking on the exposed
// density field.
package nyx

import (
	"fmt"
	"math"
	"math/rand"

	"gosensei/internal/mpi"
)

// Config describes a PM run on the unit-density periodic box.
type Config struct {
	// GridCells is the global cells per axis.
	GridCells int
	// ParticlesPerAxis generates ParticlesPerAxis³ particles on a perturbed
	// lattice.
	ParticlesPerAxis int
	// BoxSize is the physical edge length.
	BoxSize float64
	// DT is the leapfrog step.
	DT float64
	// G is the gravitational coupling (normalized units).
	G float64
	// PoissonIters bounds the per-step Jacobi relaxation.
	PoissonIters int
	// Seed drives the initial perturbations.
	Seed int64
}

// DefaultConfig returns a small LyA-like setup.
func DefaultConfig(cells int) Config {
	return Config{
		GridCells:        cells,
		ParticlesPerAxis: cells,
		BoxSize:          1,
		DT:               0.05,
		G:                1,
		PoissonIters:     24,
		Seed:             12345,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.GridCells < 2 {
		return fmt.Errorf("nyx: need >= 2 cells, got %d", c.GridCells)
	}
	if c.ParticlesPerAxis < 1 {
		return fmt.Errorf("nyx: need >= 1 particle per axis")
	}
	if c.BoxSize <= 0 || c.DT <= 0 || c.PoissonIters < 1 {
		return fmt.Errorf("nyx: box, dt, and poisson iterations must be positive")
	}
	return nil
}

// CheckRanks is the one rule of which world sizes the box can feed: the z
// slabs need a cell each. NewSim applies it, and so does a launcher before
// any rank exists.
func (c *Config) CheckRanks(n int) error {
	if c.GridCells < n {
		return fmt.Errorf("nyx: %d z-cells cannot feed %d ranks", c.GridCells, n)
	}
	return nil
}

// Sim is the per-rank state: a z slab of the mesh (one ghost layer each
// side) plus the particles currently owned by the slab.
type Sim struct {
	Comm *mpi.Comm
	Cfg  Config

	// nz is the owned z-cell count; offZ the global z offset.
	nz, offZ int
	// Pos and Vel hold the local particles, interleaved xyz.
	Pos []float64
	Vel []float64
	// Rho is the ghosted density slab: (N)(N)(nz+2), k-major with k=0 the
	// low ghost layer. Phi matches.
	Rho []float64
	Phi []float64

	pmass float64 // particle mass so the mean density is 1
	step  int
	time  float64
}

// slabOf returns the rank owning global z cell k.
func slabOf(k, cells, ranks int) int {
	base := cells / ranks
	rem := cells % ranks
	// Ranks [0, rem) own base+1 cells.
	cut := rem * (base + 1)
	if k < cut {
		return k / (base + 1)
	}
	return rem + (k-cut)/base
}

// NewSim decomposes the box and lays down the perturbed particle lattice.
func NewSim(c *mpi.Comm, cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.CheckRanks(c.Size()); err != nil {
		return nil, err
	}
	n := cfg.GridCells
	base := n / c.Size()
	rem := n % c.Size()
	s := &Sim{Comm: c, Cfg: cfg}
	s.nz = base
	if c.Rank() < rem {
		s.nz++
	}
	s.offZ = c.Rank()*base + min(c.Rank(), rem)
	s.Rho = make([]float64, n*n*(s.nz+2))
	s.Phi = make([]float64, n*n*(s.nz+2))

	// Total particles and mass normalization: mean density 1.
	pp := cfg.ParticlesPerAxis
	total := pp * pp * pp
	cellVol := math.Pow(cfg.BoxSize/float64(n), 3)
	s.pmass = float64(n*n*n) * cellVol / float64(total) // = V/total

	// Perturbed lattice: each rank generates the full deterministic stream
	// and keeps its own slab's particles, so any decomposition yields the
	// same global initial condition.
	rng := rand.New(rand.NewSource(cfg.Seed))
	dxp := cfg.BoxSize / float64(pp)
	amp := 0.3 * dxp
	for kp := 0; kp < pp; kp++ {
		for jp := 0; jp < pp; jp++ {
			for ip := 0; ip < pp; ip++ {
				x := wrap((float64(ip)+0.5)*dxp+amp*rng.NormFloat64(), cfg.BoxSize)
				y := wrap((float64(jp)+0.5)*dxp+amp*rng.NormFloat64(), cfg.BoxSize)
				z := wrap((float64(kp)+0.5)*dxp+amp*rng.NormFloat64(), cfg.BoxSize)
				if s.ownsZ(z) {
					s.Pos = append(s.Pos, x, y, z)
					s.Vel = append(s.Vel, 0, 0, 0)
				}
			}
		}
	}
	return s, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func wrap(x, L float64) float64 {
	x = math.Mod(x, L)
	if x < 0 {
		x += L
	}
	return x
}

// cellSize returns the mesh spacing.
func (s *Sim) cellSize() float64 { return s.Cfg.BoxSize / float64(s.Cfg.GridCells) }

// ownsZ reports whether position z falls in this rank's slab.
func (s *Sim) ownsZ(z float64) bool {
	k := int(z / s.cellSize())
	if k >= s.Cfg.GridCells {
		k = s.Cfg.GridCells - 1
	}
	return slabOf(k, s.Cfg.GridCells, s.Comm.Size()) == s.Comm.Rank()
}

// NumParticles returns the local particle count.
func (s *Sim) NumParticles() int { return len(s.Pos) / 3 }

// StepIndex returns the completed step count.
func (s *Sim) StepIndex() int { return s.step }

// Time returns the simulation time.
func (s *Sim) Time() float64 { return s.time }

// LocalZ returns the owned z-cell count and offset.
func (s *Sim) LocalZ() (nz, offZ int) { return s.nz, s.offZ }

// gridIdx maps (i, j, localK) with localK in [-1, nz] into the ghosted slab.
func (s *Sim) gridIdx(i, j, lk int) int {
	n := s.Cfg.GridCells
	return (lk+1)*n*n + j*n + i
}

// Step advances one PM step: deposit, solve, kick, drift, migrate.
func (s *Sim) Step() error {
	if err := s.Deposit(); err != nil {
		return err
	}
	if err := s.SolvePoisson(); err != nil {
		return err
	}
	s.kickDrift()
	if err := s.Migrate(); err != nil {
		return err
	}
	s.step++
	s.time += s.Cfg.DT
	return nil
}

// Deposit clears the density slab and cloud-in-cell deposits every local
// particle, then folds ghost-layer contributions onto the owning neighbors.
func (s *Sim) Deposit() error {
	for i := range s.Rho {
		s.Rho[i] = 0
	}
	n := s.Cfg.GridCells
	h := s.cellSize()
	cellVol := h * h * h
	w := s.pmass / cellVol
	for p := 0; p < s.NumParticles(); p++ {
		x, y, z := s.Pos[p*3], s.Pos[p*3+1], s.Pos[p*3+2]
		// CIC: the particle spans the 8 cells around its position shifted by
		// half a cell (cell centers).
		fx := x/h - 0.5
		fy := y/h - 0.5
		fz := z/h - 0.5
		i0 := int(math.Floor(fx))
		j0 := int(math.Floor(fy))
		k0 := int(math.Floor(fz))
		tx := fx - float64(i0)
		ty := fy - float64(j0)
		tz := fz - float64(k0)
		for dk := 0; dk <= 1; dk++ {
			wk := tz
			if dk == 0 {
				wk = 1 - tz
			}
			lk := k0 + dk - s.offZ
			if lk < -1 || lk > s.nz {
				// With CIC reach of one cell, out-of-ghost deposits can only
				// happen via the periodic wrap; fold them around.
				gk := ((k0+dk)%n + n) % n
				lk = gk - s.offZ
				if lk < -1 || lk > s.nz {
					continue // owned by a non-adjacent rank; its own ghost catches it
				}
			}
			for dj := 0; dj <= 1; dj++ {
				wj := ty
				if dj == 0 {
					wj = 1 - ty
				}
				jj := ((j0+dj)%n + n) % n
				for di := 0; di <= 1; di++ {
					wi := tx
					if di == 0 {
						wi = 1 - tx
					}
					ii := ((i0+di)%n + n) % n
					s.Rho[s.gridIdx(ii, jj, lk)] += w * wi * wj * wk
				}
			}
		}
	}
	return s.foldGhostDeposits()
}

// foldGhostDeposits ships each ghost layer's accumulated mass to the
// neighbor that owns it and adds the neighbor's contribution to the local
// boundary layers.
func (s *Sim) foldGhostDeposits() error {
	n := s.Cfg.GridCells
	plane := n * n
	p := s.Comm.Size()
	if p == 1 {
		// Periodic self-fold.
		for idx := 0; idx < plane; idx++ {
			s.Rho[s.gridIdx(idx%n, idx/n, s.nz-1)] += s.Rho[s.gridIdx(idx%n, idx/n, -1)]
			s.Rho[s.gridIdx(idx%n, idx/n, 0)] += s.Rho[s.gridIdx(idx%n, idx/n, s.nz)]
		}
		return nil
	}
	up := (s.Comm.Rank() + 1) % p
	down := (s.Comm.Rank() - 1 + p) % p
	lo := make([]float64, plane)
	hi := make([]float64, plane)
	for idx := 0; idx < plane; idx++ {
		lo[idx] = s.Rho[plane*0+idx]        // ghost layer lk=-1
		hi[idx] = s.Rho[plane*(s.nz+1)+idx] // ghost layer lk=nz
	}
	const tagLo, tagHi = 300, 301
	mpi.Send(s.Comm, down, tagLo, lo)
	mpi.Send(s.Comm, up, tagHi, hi)
	fromUp, _, err := mpi.Recv[float64](s.Comm, up, tagLo)
	if err != nil {
		return fmt.Errorf("nyx: fold ghosts: %w", err)
	}
	fromDown, _, err := mpi.Recv[float64](s.Comm, down, tagHi)
	if err != nil {
		return fmt.Errorf("nyx: fold ghosts: %w", err)
	}
	for idx := 0; idx < plane; idx++ {
		s.Rho[plane*(s.nz+0)+idx] += fromUp[idx] // owned top layer lk=nz-1 -> offset (nz-1+1)
		s.Rho[plane*1+idx] += fromDown[idx]      // owned bottom layer lk=0 -> offset 1
	}
	return nil
}

// exchangePhiGhosts fills the phi ghost layers from the periodic neighbors.
func (s *Sim) exchangePhiGhosts() error {
	n := s.Cfg.GridCells
	plane := n * n
	p := s.Comm.Size()
	if p == 1 {
		copy(s.Phi[0:plane], s.Phi[plane*s.nz:plane*(s.nz+1)])
		copy(s.Phi[plane*(s.nz+1):], s.Phi[plane*1:plane*2])
		return nil
	}
	up := (s.Comm.Rank() + 1) % p
	down := (s.Comm.Rank() - 1 + p) % p
	const tagUp, tagDown = 310, 311
	mpi.Send(s.Comm, up, tagUp, s.Phi[plane*s.nz:plane*(s.nz+1)])
	mpi.Send(s.Comm, down, tagDown, s.Phi[plane*1:plane*2])
	fromDown, _, err := mpi.Recv[float64](s.Comm, down, tagUp)
	if err != nil {
		return fmt.Errorf("nyx: phi ghosts: %w", err)
	}
	fromUp, _, err := mpi.Recv[float64](s.Comm, up, tagDown)
	if err != nil {
		return fmt.Errorf("nyx: phi ghosts: %w", err)
	}
	copy(s.Phi[0:plane], fromDown)
	copy(s.Phi[plane*(s.nz+1):], fromUp)
	return nil
}

// SolvePoisson runs Jacobi iterations on nabla² phi = 4 pi G (rho - mean).
func (s *Sim) SolvePoisson() error {
	n := s.Cfg.GridCells
	h := s.cellSize()
	// Subtract the global mean so the periodic problem is solvable.
	local := 0.0
	for k := 0; k < s.nz; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				local += s.Rho[s.gridIdx(i, j, k)]
			}
		}
	}
	tot := make([]float64, 1)
	if err := mpi.Allreduce(s.Comm, []float64{local}, tot, mpi.OpSum); err != nil {
		return err
	}
	mean := tot[0] / float64(n*n*n)
	rhs := 4 * math.Pi * s.Cfg.G
	next := make([]float64, len(s.Phi))
	for it := 0; it < s.Cfg.PoissonIters; it++ {
		if err := s.exchangePhiGhosts(); err != nil {
			return err
		}
		for k := 0; k < s.nz; k++ {
			for j := 0; j < n; j++ {
				jm := (j - 1 + n) % n
				jp := (j + 1) % n
				for i := 0; i < n; i++ {
					im := (i - 1 + n) % n
					ip := (i + 1) % n
					id := s.gridIdx(i, j, k)
					sum := s.Phi[s.gridIdx(im, j, k)] + s.Phi[s.gridIdx(ip, j, k)] +
						s.Phi[s.gridIdx(i, jm, k)] + s.Phi[s.gridIdx(i, jp, k)] +
						s.Phi[s.gridIdx(i, j, k-1)] + s.Phi[s.gridIdx(i, j, k+1)]
					next[id] = (sum - h*h*rhs*(s.Rho[id]-mean)) / 6
				}
			}
		}
		// Copy owned region back (ghosts refreshed next iteration).
		plane := n * n
		copy(s.Phi[plane:plane*(s.nz+1)], next[plane:plane*(s.nz+1)])
	}
	return s.exchangePhiGhosts()
}

// kickDrift applies the leapfrog update with CIC-interpolated forces.
func (s *Sim) kickDrift() {
	n := s.Cfg.GridCells
	h := s.cellSize()
	L := s.Cfg.BoxSize
	dt := s.Cfg.DT
	grad := func(i, j, lk, ax int) float64 {
		switch ax {
		case 0:
			return (s.Phi[s.gridIdx((i+1)%n, j, lk)] - s.Phi[s.gridIdx((i-1+n)%n, j, lk)]) / (2 * h)
		case 1:
			return (s.Phi[s.gridIdx(i, (j+1)%n, lk)] - s.Phi[s.gridIdx(i, (j-1+n)%n, lk)]) / (2 * h)
		default:
			return (s.Phi[s.gridIdx(i, j, lk+1)] - s.Phi[s.gridIdx(i, j, lk-1)]) / (2 * h)
		}
	}
	for p := 0; p < s.NumParticles(); p++ {
		// Nearest-cell force sampling (sufficient for the proxy; CIC deposit
		// already smooths the field).
		i := int(s.Pos[p*3] / h)
		j := int(s.Pos[p*3+1] / h)
		k := int(s.Pos[p*3+2] / h)
		if i >= n {
			i = n - 1
		}
		if j >= n {
			j = n - 1
		}
		if k >= n {
			k = n - 1
		}
		lk := k - s.offZ
		if lk < 0 {
			lk = 0
		}
		if lk > s.nz-1 {
			lk = s.nz - 1
		}
		for ax := 0; ax < 3; ax++ {
			s.Vel[p*3+ax] -= grad(i, j, lk, ax) * dt
		}
		for ax := 0; ax < 3; ax++ {
			s.Pos[p*3+ax] = wrap(s.Pos[p*3+ax]+s.Vel[p*3+ax]*dt, L)
		}
	}
}

// Migrate ships particles that left the slab to their new owners.
func (s *Sim) Migrate() error {
	p := s.Comm.Size()
	if p == 1 {
		return nil
	}
	outgoing := make([][]float64, p)
	keepPos := s.Pos[:0]
	keepVel := s.Vel[:0]
	for i := 0; i < s.NumParticles(); i++ {
		z := s.Pos[i*3+2]
		k := int(z / s.cellSize())
		if k >= s.Cfg.GridCells {
			k = s.Cfg.GridCells - 1
		}
		owner := slabOf(k, s.Cfg.GridCells, p)
		if owner == s.Comm.Rank() {
			keepPos = append(keepPos, s.Pos[i*3], s.Pos[i*3+1], s.Pos[i*3+2])
			keepVel = append(keepVel, s.Vel[i*3], s.Vel[i*3+1], s.Vel[i*3+2])
		} else {
			outgoing[owner] = append(outgoing[owner],
				s.Pos[i*3], s.Pos[i*3+1], s.Pos[i*3+2],
				s.Vel[i*3], s.Vel[i*3+1], s.Vel[i*3+2])
		}
	}
	incoming, err := mpi.Alltoall(s.Comm, outgoing)
	if err != nil {
		return fmt.Errorf("nyx: migrate: %w", err)
	}
	s.Pos = keepPos
	s.Vel = keepVel
	for r, data := range incoming {
		if r == s.Comm.Rank() {
			continue
		}
		for i := 0; i+5 < len(data); i += 6 {
			s.Pos = append(s.Pos, data[i], data[i+1], data[i+2])
			s.Vel = append(s.Vel, data[i+3], data[i+4], data[i+5])
		}
	}
	return nil
}

// TotalDeposited integrates the owned density — equal to the global mass
// independent of decomposition (the tests verify).
//
//lint:ignore unreferenced TestDepositConservesMass checks the CIC deposit against this global sum
func (s *Sim) TotalDeposited() (float64, error) {
	n := s.Cfg.GridCells
	h := s.cellSize()
	local := 0.0
	for k := 0; k < s.nz; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				local += s.Rho[s.gridIdx(i, j, k)]
			}
		}
	}
	local *= h * h * h
	out := make([]float64, 1)
	if err := mpi.Allreduce(s.Comm, []float64{local}, out, mpi.OpSum); err != nil {
		return 0, err
	}
	return out[0], nil
}
