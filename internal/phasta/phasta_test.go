package phasta

import (
	"math"
	"os"
	"testing"

	"gosensei/internal/catalyst"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(8)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DT = 0
	if err := bad.Validate(); err == nil {
		t.Error("dt=0 accepted")
	}
	bad = good
	bad.GlobalPoints[1] = 1
	if err := bad.Validate(); err == nil {
		t.Error("degenerate axis accepted")
	}
	bad = good
	bad.JetRadius = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero jet radius accepted")
	}
}

func TestMeshCountsTile(t *testing.T) {
	cfg := DefaultConfig(13)
	wantTets := (cfg.GlobalPoints[0] - 1) * (cfg.GlobalPoints[1] - 1) * (cfg.GlobalPoints[2] - 1) * 6
	for _, n := range []int{1, 2, 3, 4} {
		total := 0
		err := mpi.Run(n, func(c *mpi.Comm) error {
			s, err := NewSolver(c, cfg)
			if err != nil {
				return err
			}
			out := make([]int64, 1)
			if err := mpi.Allreduce(c, []int64{int64(s.NumTets())}, out, mpi.OpSum); err != nil {
				return err
			}
			if c.Rank() == 0 {
				total = int(out[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != wantTets {
			t.Fatalf("n=%d: tets=%d want %d", n, total, wantTets)
		}
	}
}

func TestConnectivityValid(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSolver(c, DefaultConfig(6))
		if err != nil {
			return err
		}
		conn := s.BuildConnectivity()
		if len(conn) != s.NumTets()*4 {
			t.Fatalf("conn len=%d want %d", len(conn), s.NumTets()*4)
		}
		np := int64(s.NumPoints())
		seen := make([]bool, np)
		for _, id := range conn {
			if id < 0 || id >= np {
				t.Fatalf("node id %d out of range", id)
			}
			seen[id] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("node %d unused", i)
			}
		}
		// Every tet must have positive volume under a consistent orientation
		// check: nondegenerate at least.
		for ti := 0; ti < s.NumTets(); ti++ {
			var p [4][3]float64
			for v := 0; v < 4; v++ {
				id := conn[ti*4+v]
				p[v] = [3]float64{s.X[id], s.Y[id], s.Z[id]}
			}
			vol := tetVolume(p)
			if math.Abs(vol) < 1e-12 {
				t.Fatalf("degenerate tet %d", ti)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func tetVolume(p [4][3]float64) float64 {
	var a, b, c [3]float64
	for i := 0; i < 3; i++ {
		a[i] = p[1][i] - p[0][i]
		b[i] = p[2][i] - p[0][i]
		c[i] = p[3][i] - p[0][i]
	}
	return (a[0]*(b[1]*c[2]-b[2]*c[1]) - a[1]*(b[0]*c[2]-b[2]*c[0]) + a[2]*(b[0]*c[1]-b[1]*c[0])) / 6
}

func TestHexVolumeCovered(t *testing.T) {
	// The 6 tets of each hex must fill it exactly: total |volume| equals the
	// domain volume.
	err := mpi.Run(1, func(c *mpi.Comm) error {
		cfg := DefaultConfig(5)
		s, err := NewSolver(c, cfg)
		if err != nil {
			return err
		}
		conn := s.BuildConnectivity()
		total := 0.0
		for ti := 0; ti < s.NumTets(); ti++ {
			var p [4][3]float64
			for v := 0; v < 4; v++ {
				id := conn[ti*4+v]
				p[v] = [3]float64{s.X[id], s.Y[id], s.Z[id]}
			}
			total += math.Abs(tetVolume(p))
		}
		want := cfg.Domain[0] * cfg.Domain[1] * cfg.Domain[2]
		if math.Abs(total-want)/want > 1e-9 {
			t.Fatalf("tet volumes sum to %v, domain is %v", total, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJetPulsesAndSteers(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := DefaultConfig(10)
		s, err := NewSolver(c, cfg)
		if err != nil {
			return err
		}
		peak := 0.0
		for i := 0; i < 20; i++ {
			s.Step()
			v, err := s.MaxJetVelocity()
			if err != nil {
				return err
			}
			peak = math.Max(peak, v)
		}
		if peak <= 0.1 {
			t.Errorf("jet never fired: peak=%v", peak)
		}
		// Steering: kill the jet and the vertical velocity collapses.
		s.SetJet(0, cfg.JetFrequency)
		s.Step()
		v, err := s.MaxJetVelocity()
		if err != nil {
			return err
		}
		if c.Rank() == 0 && v > peak/10 {
			t.Errorf("steering ineffective: v=%v after amplitude 0 (peak %v)", v, peak)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptorZeroCopySemantics(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		mem := metrics.NewTracker()
		s, err := NewSolver(c, DefaultConfig(6))
		if err != nil {
			return err
		}
		s.Step()
		d := NewDataAdaptor(s)
		d.Memory = mem
		d.Update()
		mesh, err := d.Mesh(false)
		if err != nil {
			return err
		}
		if err := d.AddArray(mesh, grid.PointData, "velocity"); err != nil {
			return err
		}
		g := mesh.(*grid.UnstructuredGrid)
		// Coordinates are zero-copy SOA: mutating the solver's plane shows
		// through the mesh.
		s.X[0] = -42
		if g.Points.Value(0, 0) != -42 {
			t.Error("coordinates copied, want zero-copy")
		}
		// Velocity is zero-copy AOS.
		s.Vel[4] = 99.5
		vel := g.Attributes(grid.PointData).Get("velocity")
		if vel.Value(1, 1) != 99.5 {
			t.Error("velocity copied, want zero-copy")
		}
		// Connectivity is a tracked full copy, dropped on release.
		if mem.Named("phasta/connectivity") == 0 {
			t.Error("connectivity copy not accounted")
		}
		if err := d.ReleaseData(); err != nil {
			return err
		}
		if mem.Current() != 0 {
			t.Errorf("connectivity leaked: %d", mem.Current())
		}
		// Unknown arrays rejected.
		mesh2, _ := d.Mesh(false)
		if err := d.AddArray(mesh2, grid.PointData, "pressure"); err == nil {
			t.Error("unknown array accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithCatalystSlice(t *testing.T) {
	// The Table 2 pipeline at miniature scale: PHASTA proxy + SENSEI +
	// Catalyst slice of velocity magnitude on the unstructured mesh.
	dir := t.TempDir()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSolver(c, DefaultConfig(10))
		if err != nil {
			return err
		}
		a := catalyst.NewSliceAdaptor(c, catalyst.Options{
			ArrayName: "velocity", Assoc: grid.PointData,
			Width: 80, Height: 20, // the paper's 800x200, scaled by 10
			SliceAxis: 2, SliceCoord: 1.0,
			OutputDir: dir,
		})
		b := core.NewBridge(c, nil, nil)
		b.AddAnalysis("catalyst", a)
		d := NewDataAdaptor(s)
		for i := 0; i < 4; i += 2 { // images every other step, as the runs did
			s.Step()
			s.Step()
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
	if images, err := os.ReadDir(dir); err != nil || len(images) != 2 {
		t.Errorf("images=%d (%v)", len(images), err)
	}
}
