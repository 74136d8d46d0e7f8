package nyx

import (
	"math"
	"testing"

	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/mpi"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(8)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.GridCells = 1 },
		func(c *Config) { c.ParticlesPerAxis = 0 },
		func(c *Config) { c.DT = 0 },
		func(c *Config) { c.PoissonIters = 0 },
	} {
		bad := good
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Error("invalid config accepted")
		}
	}
}

func TestSlabOfPartition(t *testing.T) {
	// Every cell is owned by exactly one rank and ownership is contiguous.
	for _, tc := range []struct{ cells, ranks int }{{8, 1}, {8, 2}, {10, 3}, {16, 5}} {
		prev := 0
		counts := make([]int, tc.ranks)
		for k := 0; k < tc.cells; k++ {
			r := slabOf(k, tc.cells, tc.ranks)
			if r < prev || r > prev+1 || r >= tc.ranks {
				t.Fatalf("cells=%d ranks=%d k=%d: owner %d after %d", tc.cells, tc.ranks, k, r, prev)
			}
			counts[r]++
			prev = r
		}
		for r, c := range counts {
			if c == 0 {
				t.Fatalf("cells=%d ranks=%d: rank %d owns nothing", tc.cells, tc.ranks, r)
			}
		}
	}
}

func TestParticleCountConserved(t *testing.T) {
	cfg := DefaultConfig(8)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg)
		if err != nil {
			return err
		}
		want := int64(cfg.ParticlesPerAxis * cfg.ParticlesPerAxis * cfg.ParticlesPerAxis)
		n0, err := globalParticles(s)
		if err != nil {
			return err
		}
		if n0 != want {
			t.Errorf("initial particles=%d want %d", n0, want)
		}
		for i := 0; i < 3; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		n1, err := globalParticles(s)
		if err != nil {
			return err
		}
		if n1 != want {
			t.Errorf("particles after steps=%d want %d", n1, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDepositConservesMass(t *testing.T) {
	cfg := DefaultConfig(8)
	for _, n := range []int{1, 2, 4} {
		err := mpi.Run(n, func(c *mpi.Comm) error {
			s, err := NewSim(c, cfg)
			if err != nil {
				return err
			}
			if err := s.Deposit(); err != nil {
				return err
			}
			mass, err := s.TotalDeposited()
			if err != nil {
				return err
			}
			// Mean density is 1 by construction: total mass = box volume.
			want := math.Pow(cfg.BoxSize, 3)
			if c.Rank() == 0 && math.Abs(mass-want)/want > 1e-10 {
				t.Errorf("n=%d: deposited mass %v want %v", n, mass, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDepositParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(8)
	// Serial density reference over owned cells keyed by global (i,j,k).
	ref := map[[3]int]float64{}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg)
		if err != nil {
			return err
		}
		if err := s.Deposit(); err != nil {
			return err
		}
		n := cfg.GridCells
		for k := 0; k < s.nz; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					ref[[3]int{i, j, k}] = s.Rho[s.gridIdx(i, j, k)]
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(4, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg)
		if err != nil {
			return err
		}
		if err := s.Deposit(); err != nil {
			return err
		}
		n := cfg.GridCells
		for k := 0; k < s.nz; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					want := ref[[3]int{i, j, k + s.offZ}]
					got := s.Rho[s.gridIdx(i, j, k)]
					if math.Abs(got-want) > 1e-9 {
						t.Errorf("rank %d cell (%d,%d,%d): %v want %v", c.Rank(), i, j, k+s.offZ, got, want)
						return nil
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGravityPullsTowardOverdensity(t *testing.T) {
	// Place all particles at rest; after a few steps the velocity field
	// should point toward the densest region (structure formation).
	cfg := DefaultConfig(8)
	cfg.DT = 0.02
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg)
		if err != nil {
			return err
		}
		// Kinetic energy starts at zero and grows under gravity.
		ke := func() float64 {
			e := 0.0
			for i := range s.Vel {
				e += s.Vel[i] * s.Vel[i]
			}
			return e
		}
		if ke() != 0 {
			t.Fatal("particles not at rest initially")
		}
		for i := 0; i < 4; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		if ke() <= 0 {
			t.Error("gravity did nothing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoissonResidualDecreases(t *testing.T) {
	cfg := DefaultConfig(8)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg)
		if err != nil {
			return err
		}
		if err := s.Deposit(); err != nil {
			return err
		}
		residual := func() (float64, error) {
			n := cfg.GridCells
			h := s.cellSize()
			if err := s.exchangePhiGhosts(); err != nil {
				return 0, err
			}
			// Mean-subtracted source.
			localSum := 0.0
			for k := 0; k < s.nz; k++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						localSum += s.Rho[s.gridIdx(i, j, k)]
					}
				}
			}
			tot := make([]float64, 1)
			if err := mpi.Allreduce(c, []float64{localSum}, tot, mpi.OpSum); err != nil {
				return 0, err
			}
			mean := tot[0] / float64(n*n*n)
			local := 0.0
			for k := 0; k < s.nz; k++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						lap := (s.Phi[s.gridIdx((i+1)%n, j, k)] + s.Phi[s.gridIdx((i-1+n)%n, j, k)] +
							s.Phi[s.gridIdx(i, (j+1)%n, k)] + s.Phi[s.gridIdx(i, (j-1+n)%n, k)] +
							s.Phi[s.gridIdx(i, j, k-1)] + s.Phi[s.gridIdx(i, j, k+1)] -
							6*s.Phi[s.gridIdx(i, j, k)]) / (h * h)
						r := lap - 4*math.Pi*cfg.G*(s.Rho[s.gridIdx(i, j, k)]-mean)
						local += r * r
					}
				}
			}
			out := make([]float64, 1)
			if err := mpi.Allreduce(c, []float64{local}, out, mpi.OpSum); err != nil {
				return 0, err
			}
			return out[0], nil
		}
		r0, err := residual()
		if err != nil {
			return err
		}
		if err := s.SolvePoisson(); err != nil {
			return err
		}
		r1, err := residual()
		if err != nil {
			return err
		}
		if c.Rank() == 0 && r1 >= r0 {
			t.Errorf("residual did not decrease: %v -> %v", r0, r1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptorGhostBlanking(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSim(c, DefaultConfig(8))
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		d.Update()
		mesh, err := d.Mesh(false)
		if err != nil {
			return err
		}
		if err := d.AddArray(mesh, grid.CellData, "dark_matter_density"); err != nil {
			return err
		}
		img := mesh.(*grid.ImageData)
		rho := img.Attributes(grid.CellData).Get("dark_matter_density")
		gh := img.Attributes(grid.CellData).Get(grid.GhostArrayName)
		if gh == nil {
			t.Error("no vtkGhostLevels attached")
			return nil
		}
		if rho.Tuples() != gh.Tuples() {
			t.Error("ghost array size mismatch")
		}
		// Zero-copy check: the adaptor exposes the live density slab.
		s.Rho[len(s.Rho)/2] = 777
		if rho.Value(len(s.Rho)/2, 0) != 777 {
			t.Error("density copied, want zero-copy")
		}
		// Exactly the two z ghost planes are marked.
		n := s.Cfg.GridCells
		marked := 0
		for i := 0; i < gh.Tuples(); i++ {
			if gh.Value(i, 0) != 0 {
				marked++
			}
		}
		if marked != 2*n*n {
			t.Errorf("ghost marks=%d want %d", marked, 2*n*n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSkipsGhostsAcrossRanks(t *testing.T) {
	// Fig. 17's histogram analysis: the ghost layers are duplicated between
	// neighbors, so blanking must make the global histogram count each cell
	// exactly once.
	cfg := DefaultConfig(8)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		d.Update()
		h := analysis.NewHistogram(c, "dark_matter_density", grid.CellData, 8)
		if _, err := h.Execute(d); err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := int64(cfg.GridCells * cfg.GridCells * cfg.GridCells)
			if countsTotal(h.Last.Counts) != want {
				t.Errorf("histogram total=%d want %d (ghosts double-counted?)", countsTotal(h.Last.Counts), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBridgeIntegration(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSim(c, DefaultConfig(8))
		if err != nil {
			return err
		}
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="histogram" array="dark_matter_density" bins="10"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		for i := 0; i < 2; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			d.Update()
			if _, err := b.Execute(d); err != nil {
				return err
			}
		}
		return b.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// globalParticles returns the global particle count.
func globalParticles(s *Sim) (int64, error) {
	out := make([]int64, 1)
	if err := mpi.Allreduce(s.Comm, []int64{int64(s.NumParticles())}, out, mpi.OpSum); err != nil {
		return 0, err
	}
	return out[0], nil
}

// countsTotal is the number of elements a histogram counted.
func countsTotal(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}
