// Package phasta implements the PHASTA proxy of this reproduction: an
// unstructured tetrahedral-mesh flow solver standing in for the stabilized
// finite element Navier-Stokes code of the paper's §4.2.1, which ran at up
// to 1,048,576 MPI ranks on Mira with SENSEI/Catalyst slice rendering.
//
// Substitution note (see DESIGN.md): PHASTA solves implicit FEM
// Navier-Stokes; this proxy evolves a nodal velocity field on a tetrahedral
// mesh — an analytic crossflow plus a synthetic jet whose frequency and
// amplitude can be retuned mid-run (the paper's live flow-control steering
// scenario) — followed by mesh-topology smoothing sweeps that cost O(nodes)
// per step like a real solver's matrix work. The properties the paper
// measures are preserved: Fortran-style separate coordinate arrays mapped
// zero-copy via SOA, interleaved field arrays mapped zero-copy via AOS, and
// connectivity rebuilt as a full copy on every in situ access.
package phasta

import (
	"fmt"
	"math"

	"gosensei/internal/mpi"
)

// Config describes the proxy problem: flow over a flat domain with a
// synthetic jet at the bottom wall (the tail-rudder assembly's flow-control
// jet, reduced to its measurable essence).
type Config struct {
	// GlobalPoints is the structured generating grid per axis; the tet mesh
	// has 6 tets per generated hex.
	GlobalPoints [3]int
	// Domain is the physical size.
	Domain [3]float64
	// Crossflow is the freestream x velocity.
	Crossflow float64
	// JetCenter is the jet position on the bottom wall (x, z).
	JetCenter [2]float64
	// JetRadius is the jet footprint radius.
	JetRadius float64
	// JetAmplitude and JetFrequency drive the jet; both are retunable
	// mid-run via Solver.SetJet (live steering).
	JetAmplitude float64
	JetFrequency float64
	// SmoothingSweeps is the per-step relaxation count (solver cost).
	SmoothingSweeps int
	// DT is the time step.
	DT float64
}

// DefaultConfig returns a small version of the vertical-tail problem.
func DefaultConfig(pts int) Config {
	return Config{
		GlobalPoints:    [3]int{pts, pts/2 + 2, pts/2 + 2},
		Domain:          [3]float64{4, 2, 2},
		Crossflow:       1.0,
		JetCenter:       [2]float64{1.0, 1.0},
		JetRadius:       0.3,
		JetAmplitude:    0.8,
		JetFrequency:    3.0,
		SmoothingSweeps: 2,
		DT:              0.02,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	for ax := 0; ax < 3; ax++ {
		if c.GlobalPoints[ax] < 2 {
			return fmt.Errorf("phasta: axis %d needs >= 2 points, got %d", ax, c.GlobalPoints[ax])
		}
	}
	if c.DT <= 0 {
		return fmt.Errorf("phasta: dt must be positive")
	}
	if c.JetRadius <= 0 {
		return fmt.Errorf("phasta: jet radius must be positive")
	}
	if c.SmoothingSweeps < 0 {
		return fmt.Errorf("phasta: smoothing sweeps must be non-negative")
	}
	return nil
}

// CheckRanks is the one rule of which world sizes the mesh can feed: the x
// slabs need a generating cell each. NewSolver applies it, and so does a
// launcher before any rank exists.
func (c *Config) CheckRanks(n int) error {
	if cellsX := c.GlobalPoints[0] - 1; cellsX < n {
		return fmt.Errorf("phasta: %d x-cells cannot feed %d ranks", cellsX, n)
	}
	return nil
}

// Solver is the per-rank state: a slab (along x) of the generated tet mesh
// with Fortran-style separate nodal coordinate arrays and an interleaved
// velocity array.
type Solver struct {
	Comm *mpi.Comm
	Cfg  Config

	// Coordinate planes, SOA like PHASTA's Fortran arrays.
	X, Y, Z []float64
	// Vel is interleaved (u, v, w) per node, AOS.
	Vel []float64

	// npts is the local point counts per axis (slab along x, including the
	// shared interface plane on the high side except for the last rank).
	npts [3]int
	offX int // global index of the first local x plane

	step int
	time float64
}

// NewSolver builds the rank's slab and initial field.
func NewSolver(c *mpi.Comm, cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Slab decomposition along x over generating cells: rank r owns cell
	// planes [lo, hi), and points [lo, hi] (sharing the interface point).
	if err := cfg.CheckRanks(c.Size()); err != nil {
		return nil, err
	}
	cellsX := cfg.GlobalPoints[0] - 1
	base := cellsX / c.Size()
	rem := cellsX % c.Size()
	lo := c.Rank()*base + min(c.Rank(), rem)
	n := base
	if c.Rank() < rem {
		n++
	}
	s := &Solver{
		Comm: c,
		Cfg:  cfg,
		npts: [3]int{n + 1, cfg.GlobalPoints[1], cfg.GlobalPoints[2]},
		offX: lo,
	}
	np := s.npts[0] * s.npts[1] * s.npts[2]
	s.X = make([]float64, np)
	s.Y = make([]float64, np)
	s.Z = make([]float64, np)
	s.Vel = make([]float64, np*3)
	dx := [3]float64{
		cfg.Domain[0] / float64(cfg.GlobalPoints[0]-1),
		cfg.Domain[1] / float64(cfg.GlobalPoints[1]-1),
		cfg.Domain[2] / float64(cfg.GlobalPoints[2]-1),
	}
	idx := 0
	for k := 0; k < s.npts[2]; k++ {
		for j := 0; j < s.npts[1]; j++ {
			for i := 0; i < s.npts[0]; i++ {
				s.X[idx] = float64(s.offX+i) * dx[0]
				s.Y[idx] = float64(j) * dx[1]
				s.Z[idx] = float64(k) * dx[2]
				idx++
			}
		}
	}
	s.evaluateField()
	return s, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NumPoints returns the local node count.
func (s *Solver) NumPoints() int { return len(s.X) }

// NumTets returns the local tetrahedron count.
func (s *Solver) NumTets() int {
	return (s.npts[0] - 1) * (s.npts[1] - 1) * (s.npts[2] - 1) * 6
}

// StepIndex returns the completed step count.
func (s *Solver) StepIndex() int { return s.step }

// Time returns the simulation time.
func (s *Solver) Time() float64 { return s.time }

// SetJet retunes the synthetic jet mid-run — the live steering loop the
// paper's PHASTA study closes with SENSEI imagery.
func (s *Solver) SetJet(amplitude, frequency float64) {
	s.Cfg.JetAmplitude = amplitude
	s.Cfg.JetFrequency = frequency
}

// evaluateField fills the velocity with the crossflow + jet solution at the
// current time: a boundary-layer-profiled freestream plus a pulsed vertical
// jet whose plume bends downstream.
func (s *Solver) evaluateField() {
	cfg := s.Cfg
	pulse := math.Max(0, math.Sin(2*math.Pi*cfg.JetFrequency*s.time))
	for p := 0; p < s.NumPoints(); p++ {
		x, y, z := s.X[p], s.Y[p], s.Z[p]
		// Boundary layer: u grows from the wall with a 1/7th-power-ish ramp.
		h := y / cfg.Domain[1]
		u := cfg.Crossflow * math.Pow(math.Max(h, 0), 0.25)
		// Jet plume: Gaussian footprint advected downstream as it rises.
		bend := y * cfg.Crossflow * 0.8
		dx := x - (cfg.JetCenter[0] + bend)
		dz := z - cfg.JetCenter[1]
		r2 := (dx*dx + dz*dz) / (cfg.JetRadius * cfg.JetRadius)
		jet := cfg.JetAmplitude * pulse * math.Exp(-r2) * math.Exp(-y/cfg.Domain[1]*1.5)
		v := jet
		w := 0.15 * jet * math.Sin(2*math.Pi*z/cfg.Domain[2])
		s.Vel[p*3+0] = u + 0.3*jet // the jet locally accelerates the stream
		s.Vel[p*3+1] = v
		s.Vel[p*3+2] = w
	}
}

// Step advances the solver: re-evaluate the driven field at t+dt, then run
// the smoothing sweeps that stand in for the implicit solve.
func (s *Solver) Step() {
	s.time += s.Cfg.DT
	s.evaluateField()
	for sweep := 0; sweep < s.Cfg.SmoothingSweeps; sweep++ {
		s.smooth()
	}
	s.step++
}

// smooth runs one Jacobi-style relaxation over the structured node topology
// (the generating grid's 6-neighborhood), costing O(nodes) like a matrix
// application.
func (s *Solver) smooth() {
	nx, ny, nz := s.npts[0], s.npts[1], s.npts[2]
	stride := [3]int{1, nx, nx * ny}
	next := make([]float64, len(s.Vel))
	copy(next, s.Vel)
	for k := 1; k < nz-1; k++ {
		for j := 1; j < ny-1; j++ {
			for i := 1; i < nx-1; i++ {
				id := k*nx*ny + j*nx + i
				for c := 0; c < 3; c++ {
					sum := 0.0
					for _, st := range stride {
						sum += s.Vel[(id-st)*3+c] + s.Vel[(id+st)*3+c]
					}
					next[id*3+c] = 0.5*s.Vel[id*3+c] + 0.5*sum/6
				}
			}
		}
	}
	s.Vel = next
}

// BuildConnectivity constructs the tetrahedral connectivity — a full copy,
// rebuilt on every call, matching the paper's description of the PHASTA
// data adaptor ("the VTK grid connectivity is a full copy ... constructed
// as needed").
func (s *Solver) BuildConnectivity() []int64 {
	nx, ny, nz := s.npts[0], s.npts[1], s.npts[2]
	conn := make([]int64, 0, s.NumTets()*4)
	node := func(i, j, k int) int64 { return int64(k*nx*ny + j*nx + i) }
	// 6-tet decomposition of each generated hex (shared main diagonal).
	tets := [6][4][3]int{
		{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {1, 1, 1}},
		{{0, 0, 0}, {1, 0, 0}, {1, 1, 1}, {1, 0, 1}},
		{{0, 0, 0}, {1, 0, 1}, {1, 1, 1}, {0, 0, 1}},
		{{0, 0, 0}, {1, 1, 0}, {0, 1, 0}, {1, 1, 1}},
		{{0, 0, 0}, {0, 1, 0}, {0, 1, 1}, {1, 1, 1}},
		{{0, 0, 0}, {0, 1, 1}, {0, 0, 1}, {1, 1, 1}},
	}
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i := 0; i < nx-1; i++ {
				for _, t := range tets {
					for _, v := range t {
						conn = append(conn, node(i+v[0], j+v[1], k+v[2]))
					}
				}
			}
		}
	}
	return conn
}

// MaxJetVelocity returns the global maximum vertical velocity — a cheap
// scalar the steering loop watches.
//
//lint:ignore unreferenced TestJetPulsesAndSteers reads the global jet peak to check pulsing and steering
func (s *Solver) MaxJetVelocity() (float64, error) {
	local := 0.0
	for p := 0; p < s.NumPoints(); p++ {
		if v := s.Vel[p*3+1]; v > local {
			local = v
		}
	}
	out := make([]float64, 1)
	if err := mpi.Allreduce(s.Comm, []float64{local}, out, mpi.OpMax); err != nil {
		return 0, err
	}
	return out[0], nil
}
