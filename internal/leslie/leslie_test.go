package leslie

import (
	"math"
	"testing"

	_ "gosensei/internal/analysis" // register the histogram factory
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func smallConfig() Config {
	c := DefaultConfig(12)
	return c
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.CFL = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("CFL >= 1 accepted")
	}
	bad = good
	bad.GlobalCells[0] = 1
	if err := bad.Validate(); err == nil {
		t.Error("1-cell axis accepted")
	}
	bad = good
	bad.Domain[2] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero domain accepted")
	}
}

func TestInitialConditionShape(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		// Bottom stream flows -x, top stream flows +x.
		_, uBot, _, _, _ := s.primitive(s.idx(0, 0, 0))
		_, uTop, _, _, _ := s.primitive(s.idx(0, s.n[1]-1, 0))
		if uBot >= 0 || uTop <= 0 {
			t.Errorf("shear profile wrong: uBot=%v uTop=%v", uBot, uTop)
		}
		// Positive density and pressure everywhere.
		for k := 0; k < s.n[2]; k++ {
			for j := 0; j < s.n[1]; j++ {
				for i := 0; i < s.n[0]; i++ {
					rho, _, _, _, p := s.primitive(s.idx(i, j, k))
					if rho <= 0 || p <= 0 {
						t.Fatalf("bad state at (%d,%d,%d)", i, j, k)
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

func TestMassConservation(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		m0, err := s.TotalMass()
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		m1, err := s.TotalMass()
		if err != nil {
			return err
		}
		if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
			t.Errorf("mass drifted by %.3e", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStability(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		if s.Time() <= 0 || s.StepIndex() != 20 {
			t.Errorf("step=%d time=%v", s.StepIndex(), s.Time())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSerial is the decisive ghost-exchange test: the same
// problem on 1 rank and on 8 ranks must produce bitwise-comparable fields.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := smallConfig()
	steps := 4

	// Serial reference.
	ref := make(map[[3]int][5]float64)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSolver(c, cfg, nil)
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		for k := 0; k < s.n[2]; k++ {
			for j := 0; j < s.n[1]; j++ {
				for i := 0; i < s.n[0]; i++ {
					id := s.idx(i, j, k)
					ref[[3]int{i, j, k}] = [5]float64{s.U[0][id], s.U[1][id], s.U[2][id], s.U[3][id], s.U[4][id]}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = mpi.Run(8, func(c *mpi.Comm) error {
		s, err := NewSolver(c, cfg, nil)
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		off := s.GlobalOffset()
		for k := 0; k < s.n[2]; k++ {
			for j := 0; j < s.n[1]; j++ {
				for i := 0; i < s.n[0]; i++ {
					id := s.idx(i, j, k)
					want := ref[[3]int{off[0] + i, off[1] + j, off[2] + k}]
					got := [5]float64{s.U[0][id], s.U[1][id], s.U[2][id], s.U[3][id], s.U[4][id]}
					for v := 0; v < 5; v++ {
						if math.Abs(got[v]-want[v]) > 1e-10 {
							t.Errorf("rank %d cell (%d,%d,%d) var %d: got %v want %v",
								c.Rank(), off[0]+i, off[1]+j, off[2]+k, v, got[v], want[v])
							return nil
						}
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

func TestVorticityConcentratedInShearLayer(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		if err := s.ExchangeGhosts(); err != nil {
			return err
		}
		vort := s.VorticityMagnitude()
		// Mean vorticity in the center band must exceed the band near the
		// walls: the tanh layer concentrates du/dy at y = Ly/2.
		n := s.LocalDims()
		band := func(jlo, jhi int) float64 {
			sum, cnt := 0.0, 0
			for k := 0; k < n[2]; k++ {
				for j := jlo; j < jhi; j++ {
					for i := 0; i < n[0]; i++ {
						sum += vort[k*n[0]*n[1]+j*n[0]+i]
						cnt++
					}
				}
			}
			return sum / float64(cnt)
		}
		center := band(n[1]/2-1, n[1]/2+1)
		edge := band(0, 2)
		if center < 5*edge {
			t.Errorf("vorticity not concentrated: center=%v edge=%v", center, edge)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLayerGrowsOverTime(t *testing.T) {
	// The TML evolves: kinetic energy in the v component (initially tiny
	// seeded noise) must grow as the instability rolls up.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		vEnergy := func() (float64, error) {
			local := 0.0
			for k := 0; k < s.n[2]; k++ {
				for j := 0; j < s.n[1]; j++ {
					for i := 0; i < s.n[0]; i++ {
						_, _, v, _, _ := s.primitive(s.idx(i, j, k))
						local += v * v
					}
				}
			}
			out := make([]float64, 1)
			if err := mpi.Allreduce(c, []float64{local}, out, mpi.OpSum); err != nil {
				return 0, err
			}
			return out[0], nil
		}
		e0, err := vEnergy()
		if err != nil {
			return err
		}
		for i := 0; i < 30; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		e1, err := vEnergy()
		if err != nil {
			return err
		}
		if c.Rank() == 0 && e1 <= e0 {
			t.Errorf("instability did not grow: e0=%v e1=%v", e0, e1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptorExposesArrays(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		mem := metrics.NewTracker()
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		d.Memory = mem
		d.Update()
		if d.TimeStep() != 1 {
			t.Errorf("step=%d", d.TimeStep())
		}
		mesh, err := d.Mesh(false)
		if err != nil {
			return err
		}
		for _, name := range []string{"vorticity", "density", "pressure"} {
			if err := d.AddArray(mesh, grid.CellData, name); err != nil {
				return err
			}
			a := mesh.Attributes(grid.CellData).Get(name)
			if a == nil || a.Tuples() != s.LocalCells() {
				t.Errorf("array %q wrong", name)
			}
		}
		if err := d.AddArray(mesh, grid.CellData, "temperature"); err == nil {
			t.Error("unknown array accepted")
		}
		if err := d.AddArray(mesh, grid.PointData, "vorticity"); err == nil {
			t.Error("point association accepted")
		}
		names, _ := d.ArrayNames(grid.CellData)
		if len(names) != 3 {
			t.Errorf("names=%v", names)
		}
		if err := d.ReleaseData(); err != nil {
			return err
		}
		if mem.Current() != 0 {
			t.Errorf("derived arrays leaked: %d bytes", mem.Current())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptorMeshExtentsTile(t *testing.T) {
	// The per-rank mesh extents must tile the global domain (cells owned
	// exactly once).
	err := mpi.Run(6, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		mesh, err := d.Mesh(false)
		if err != nil {
			return err
		}
		cells := int64(mesh.NumberOfCells())
		out := make([]int64, 1)
		if err := mpi.Allreduce(c, []int64{cells}, out, mpi.OpSum); err != nil {
			return err
		}
		if out[0] != 12*12*12 {
			t.Errorf("cells sum=%d", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithSENSEIBridgeAndHistogram(t *testing.T) {
	// End-to-end: the proxy instrumented once, analyzed via the bridge.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSolver(c, smallConfig(), nil)
		if err != nil {
			return err
		}
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="histogram" array="vorticity" bins="8"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		for i := 0; i < 3; i++ {
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
