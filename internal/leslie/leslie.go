// Package leslie implements the AVF-LESLIE proxy of this reproduction: a 3D
// compressible-flow finite-volume solver on a Cartesian grid simulating a
// temporally evolving planar mixing layer (TML) — the workload of the
// paper's §4.2.2 Titan study.
//
// Substitution note (see DESIGN.md): AVF-LESLIE solves the reactive
// multi-species compressible Navier-Stokes equations; this proxy solves the
// single-species compressible Euler equations with a Rusanov (local
// Lax-Friedrichs) flux and explicit time stepping. What the paper measures —
// solver cost per step versus in situ rendering cost, ghost-cell handling,
// vorticity-magnitude extraction, strong scaling — depends on the solver's
// structure (stencil sweeps + face exchanges per step), which is preserved,
// not on chemistry.
//
// The mixing layer: two streams slide past each other with a tanh velocity
// profile; seeded perturbations roll the layer up into vortex braids that
// break down toward turbulence. Periodic boundaries in x and z, slip walls
// in y.
package leslie

import (
	"fmt"
	"math"

	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

// Gamma is the ratio of specific heats (diatomic ideal gas).
const Gamma = 1.4

// nvar is the number of conserved variables: rho, rho*u, rho*v, rho*w, E.
const nvar = 5

// Config describes one TML run.
type Config struct {
	// GlobalCells is the global cell count per axis.
	GlobalCells [3]int
	// Domain is the physical size per axis (the paper uses 4pi x 4pi x 2pi).
	Domain [3]float64
	// CFL is the Courant number for the adaptive step (0 < CFL < 1).
	CFL float64
	// MachShear is the velocity of each stream in units of the sound speed.
	MachShear float64
	// ShearThickness is the initial vorticity thickness delta.
	ShearThickness float64
	// PerturbAmp seeds the instability.
	PerturbAmp float64
}

// DefaultConfig returns the TML setup scaled down from the paper's 1025^3.
func DefaultConfig(cells int) Config {
	return Config{
		GlobalCells:    [3]int{cells, cells, cells},
		Domain:         [3]float64{4 * math.Pi, 4 * math.Pi, 2 * math.Pi},
		CFL:            0.4,
		MachShear:      0.3,
		ShearThickness: 0.5,
		PerturbAmp:     0.02,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	for ax := 0; ax < 3; ax++ {
		if c.GlobalCells[ax] < 2 {
			return fmt.Errorf("leslie: axis %d needs >= 2 cells, got %d", ax, c.GlobalCells[ax])
		}
		if c.Domain[ax] <= 0 {
			return fmt.Errorf("leslie: axis %d domain must be positive", ax)
		}
	}
	if c.CFL <= 0 || c.CFL >= 1 {
		return fmt.Errorf("leslie: CFL must be in (0,1), got %v", c.CFL)
	}
	return nil
}

// CheckRanks is the one rule of which world sizes the grid can feed: each
// axis of the process grid needs a cell per process. NewSolver applies it,
// and so does a launcher before any rank exists.
func (c *Config) CheckRanks(n int) error {
	px, py, pz := grid.Dims3(n)
	for ax, parts := range [3]int{px, py, pz} {
		if total := c.GlobalCells[ax]; total < parts {
			return fmt.Errorf("leslie: axis %d: %d cells cannot feed %d ranks", ax, total, parts)
		}
	}
	return nil
}

// Solver is the per-rank state: a slab-decomposed block with one ghost layer
// on every face, holding the five conserved fields.
type Solver struct {
	Comm *mpi.Comm
	Cfg  Config

	// Process grid and this rank's coordinates within it.
	pdims  [3]int
	pcoord [3]int
	// Local owned cells per axis and global offset (in cells).
	n   [3]int
	off [3]int
	// dx is the cell size per axis.
	dx [3]float64

	// U holds conserved variables with ghosts: U[v][(k)(nyg)(nxg) + ...]
	// where nxg = n[0]+2 etc.
	U [nvar][]float64

	step int
	time float64
}

// NewSolver decomposes the domain and applies the TML initial condition.
func NewSolver(c *mpi.Comm, cfg Config, mem *metrics.Tracker) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		mem = metrics.NewTracker()
	}
	if err := cfg.CheckRanks(c.Size()); err != nil {
		return nil, err
	}
	px, py, pz := grid.Dims3(c.Size())
	s := &Solver{Comm: c, Cfg: cfg, pdims: [3]int{px, py, pz}}
	r := c.Rank()
	s.pcoord = [3]int{r % px, (r / px) % py, r / (px * py)}
	for ax := 0; ax < 3; ax++ {
		total := cfg.GlobalCells[ax]
		parts := s.pdims[ax]
		base := total / parts
		rem := total % parts
		i := s.pcoord[ax]
		s.n[ax] = base
		if i < rem {
			s.n[ax]++
		}
		s.off[ax] = i*base + min(i, rem)
		s.dx[ax] = cfg.Domain[ax] / float64(total)
	}
	tot := (s.n[0] + 2) * (s.n[1] + 2) * (s.n[2] + 2)
	for v := 0; v < nvar; v++ {
		s.U[v] = make([]float64, tot)
	}
	mem.Alloc("leslie/fields", int64(nvar*tot)*8)
	s.applyInitialCondition()
	return s, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// idx converts local cell coordinates (including ghosts at -1 and n) to a
// linear index into the ghosted arrays.
func (s *Solver) idx(i, j, k int) int {
	nxg := s.n[0] + 2
	nyg := s.n[1] + 2
	return (k+1)*nxg*nyg + (j+1)*nxg + (i + 1)
}

// CellCenter returns the physical position of owned cell (i, j, k).
func (s *Solver) CellCenter(i, j, k int) (x, y, z float64) {
	return (float64(s.off[0]+i) + 0.5) * s.dx[0],
		(float64(s.off[1]+j) + 0.5) * s.dx[1],
		(float64(s.off[2]+k) + 0.5) * s.dx[2]
}

// applyInitialCondition sets the tanh shear profile with seeded
// perturbations; pressure is uniform so the sound speed is 1.
func (s *Solver) applyInitialCondition() {
	Ly := s.Cfg.Domain[1]
	delta := s.Cfg.ShearThickness
	uShear := s.Cfg.MachShear // sound speed is 1 at rho=1, p=1/Gamma
	p0 := 1.0 / Gamma
	for k := 0; k < s.n[2]; k++ {
		for j := 0; j < s.n[1]; j++ {
			for i := 0; i < s.n[0]; i++ {
				x, y, z := s.CellCenter(i, j, k)
				yc := y - Ly/2
				u := uShear * math.Tanh(2*yc/delta)
				// Seed the Kelvin-Helmholtz roll-up with the most unstable
				// streamwise mode plus a weaker oblique mode.
				envelope := math.Exp(-(yc / delta) * (yc / delta))
				v := s.Cfg.PerturbAmp * envelope *
					(math.Sin(2*math.Pi*x/s.Cfg.Domain[0]) + 0.5*math.Sin(4*math.Pi*x/s.Cfg.Domain[0]+2*math.Pi*z/s.Cfg.Domain[2]))
				w := 0.5 * s.Cfg.PerturbAmp * envelope * math.Sin(2*math.Pi*z/s.Cfg.Domain[2])
				rho := 1.0
				id := s.idx(i, j, k)
				s.U[0][id] = rho
				s.U[1][id] = rho * u
				s.U[2][id] = rho * v
				s.U[3][id] = rho * w
				s.U[4][id] = p0/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
			}
		}
	}
}

// StepIndex returns the number of completed steps.
func (s *Solver) StepIndex() int { return s.step }

// Time returns the simulation time.
func (s *Solver) Time() float64 { return s.time }

// LocalCells returns this rank's owned cell count.
func (s *Solver) LocalCells() int { return s.n[0] * s.n[1] * s.n[2] }

// LocalDims returns the owned cells per axis.
func (s *Solver) LocalDims() [3]int { return s.n }

// GlobalOffset returns the rank's cell offset per axis.
func (s *Solver) GlobalOffset() [3]int { return s.off }

// primitive extracts (rho, u, v, w, p) at a linear index.
func (s *Solver) primitive(id int) (rho, u, v, w, p float64) {
	rho = s.U[0][id]
	inv := 1 / rho
	u = s.U[1][id] * inv
	v = s.U[2][id] * inv
	w = s.U[3][id] * inv
	kin := 0.5 * rho * (u*u + v*v + w*w)
	p = (Gamma - 1) * (s.U[4][id] - kin)
	return
}

// MaxWaveSpeed returns the global maximum |u|+c for the CFL condition.
func (s *Solver) MaxWaveSpeed() (float64, error) {
	local := 0.0
	for k := 0; k < s.n[2]; k++ {
		for j := 0; j < s.n[1]; j++ {
			for i := 0; i < s.n[0]; i++ {
				rho, u, v, w, p := s.primitive(s.idx(i, j, k))
				if rho <= 0 || p <= 0 {
					return 0, fmt.Errorf("leslie: non-physical state at (%d,%d,%d): rho=%v p=%v", i, j, k, rho, p)
				}
				c := math.Sqrt(Gamma * p / rho)
				m := math.Max(math.Abs(u), math.Max(math.Abs(v), math.Abs(w))) + c
				if m > local {
					local = m
				}
			}
		}
	}
	out := make([]float64, 1)
	if err := mpi.Allreduce(s.Comm, []float64{local}, out, mpi.OpMax); err != nil {
		return 0, err
	}
	return out[0], nil
}

// Step advances one explicit Euler step sized by the CFL condition. It
// performs one ghost exchange, then a dimension-by-dimension Rusanov flux
// update.
func (s *Solver) Step() error {
	if err := s.ExchangeGhosts(); err != nil {
		return err
	}
	smax, err := s.MaxWaveSpeed()
	if err != nil {
		return err
	}
	dmin := math.Min(s.dx[0], math.Min(s.dx[1], s.dx[2]))
	dt := s.Cfg.CFL * dmin / smax

	tot := len(s.U[0])
	var dU [nvar][]float64
	for v := 0; v < nvar; v++ {
		dU[v] = make([]float64, tot)
	}
	strides := [3]int{1, s.n[0] + 2, (s.n[0] + 2) * (s.n[1] + 2)}
	for ax := 0; ax < 3; ax++ {
		lam := dt / s.dx[ax]
		st := strides[ax]
		for k := 0; k < s.n[2]; k++ {
			for j := 0; j < s.n[1]; j++ {
				for i := 0; i < s.n[0]; i++ {
					id := s.idx(i, j, k)
					var fl, fr [nvar]float64
					s.rusanov(id-st, id, ax, &fl)
					s.rusanov(id, id+st, ax, &fr)
					for v := 0; v < nvar; v++ {
						dU[v][id] -= lam * (fr[v] - fl[v])
					}
				}
			}
		}
	}
	for v := 0; v < nvar; v++ {
		u := s.U[v]
		d := dU[v]
		for k := 0; k < s.n[2]; k++ {
			for j := 0; j < s.n[1]; j++ {
				base := s.idx(0, j, k)
				for i := 0; i < s.n[0]; i++ {
					u[base+i] += d[base+i]
				}
			}
		}
	}
	s.step++
	s.time += dt
	return nil
}

// rusanov computes the local Lax-Friedrichs flux between cells l and r along
// axis ax.
func (s *Solver) rusanov(l, r, ax int, out *[nvar]float64) {
	rhoL, uL, vL, wL, pL := s.primitive(l)
	rhoR, uR, vR, wR, pR := s.primitive(r)
	velL := [3]float64{uL, vL, wL}
	velR := [3]float64{uR, vR, wR}
	var fL, fR [nvar]float64
	eulerFlux(rhoL, velL, pL, s.U[4][l], ax, &fL)
	eulerFlux(rhoR, velR, pR, s.U[4][r], ax, &fR)
	cL := math.Sqrt(Gamma * math.Max(pL, 1e-12) / math.Max(rhoL, 1e-12))
	cR := math.Sqrt(Gamma * math.Max(pR, 1e-12) / math.Max(rhoR, 1e-12))
	alpha := math.Max(math.Abs(velL[ax])+cL, math.Abs(velR[ax])+cR)
	UL := [nvar]float64{s.U[0][l], s.U[1][l], s.U[2][l], s.U[3][l], s.U[4][l]}
	UR := [nvar]float64{s.U[0][r], s.U[1][r], s.U[2][r], s.U[3][r], s.U[4][r]}
	for v := 0; v < nvar; v++ {
		out[v] = 0.5*(fL[v]+fR[v]) - 0.5*alpha*(UR[v]-UL[v])
	}
}

// eulerFlux fills the inviscid flux along axis ax.
func eulerFlux(rho float64, vel [3]float64, p, E float64, ax int, f *[nvar]float64) {
	un := vel[ax]
	f[0] = rho * un
	f[1] = rho * vel[0] * un
	f[2] = rho * vel[1] * un
	f[3] = rho * vel[2] * un
	f[ax+1] += p
	f[4] = (E + p) * un
}
