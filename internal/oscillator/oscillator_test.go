package oscillator

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"periodic": Periodic, "Damped": Damped, "DECAYING": Decaying} {
		k, err := ParseKind(s)
		if err != nil || k != want {
			t.Errorf("ParseKind(%q)=%v,%v", s, k, err)
		}
	}
	if _, err := ParseKind("sinusoid"); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestAmplitudes(t *testing.T) {
	p := Oscillator{Kind: Periodic, Omega0: math.Pi, Radius: 1}
	if v := p.Amplitude(0.5); math.Abs(v-1) > 1e-12 {
		t.Errorf("periodic amplitude at quarter period = %v", v)
	}
	d := Oscillator{Kind: Damped, Omega0: 2, Zeta: 0.3, Radius: 1}
	if v := d.Amplitude(0); math.Abs(v) > 1e-12 {
		t.Errorf("damped amplitude at t=0 should be 0, got %v", v)
	}
	// The damped step response settles to 1.
	if v := d.Amplitude(50); math.Abs(v-1) > 1e-6 {
		t.Errorf("damped amplitude should settle to 1, got %v", v)
	}
	dec := Oscillator{Kind: Decaying, Omega0: 2, Zeta: 0.5, Radius: 1}
	if v := dec.Amplitude(100); math.Abs(v) > 1e-12 {
		t.Errorf("decaying amplitude should vanish, got %v", v)
	}
}

func TestEvaluateGaussianFalloff(t *testing.T) {
	o := Oscillator{Kind: Periodic, Center: [3]float64{0, 0, 0}, Radius: 2, Omega0: math.Pi}
	at := func(x float64) float64 { return o.Evaluate(x, 0, 0, 0.5) }
	if math.Abs(at(0)-1) > 1e-12 {
		t.Errorf("peak=%v", at(0))
	}
	if at(1) <= at(2) || at(2) <= at(4) {
		t.Error("Gaussian falloff not monotone")
	}
	// Isotropy.
	if math.Abs(o.Evaluate(1, 0, 0, 0.5)-o.Evaluate(0, 0, 1, 0.5)) > 1e-12 {
		t.Error("kernel not isotropic")
	}
}

func TestParseDeck(t *testing.T) {
	deck := `
# sample deck
damped   32 32 32 10 3.14 0.3
periodic 16 16 16 8 6.28      # trailing comment
`
	os, err := ParseDeck(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if len(os) != 2 {
		t.Fatalf("parsed %d oscillators", len(os))
	}
	if os[0].Kind != Damped || os[0].Zeta != 0.3 || os[0].Radius != 10 {
		t.Fatalf("first=%+v", os[0])
	}
	if os[1].Kind != Periodic || os[1].Omega0 != 6.28 {
		t.Fatalf("second=%+v", os[1])
	}
}

func TestParseDeckErrors(t *testing.T) {
	for name, deck := range map[string]string{
		"too few fields": "periodic 1 2 3 4",
		"bad kind":       "wavy 1 2 3 4 5",
		"bad float":      "periodic a 2 3 4 5",
		"zero radius":    "periodic 1 2 3 0 5",
		"nan center":     "periodic nan 1 1 nan 3",
		"inf omega":      "periodic 1 1 1 inf 3",
		"infinity zeta":  "damped 1 1 1 2 3 -infinity",
		"2R² underflows": "periodic 1 1 1 1e-200 3",
		"2R² too large":  "periodic 1 1 1 1e153 3",
	} {
		if _, err := ParseDeck(strings.NewReader(deck)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{GlobalCells: [3]int{8, 8, 8}, DT: 0.1, Steps: 2, Oscillators: DefaultDeck(8)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DT = 0
	if err := bad.Validate(); err == nil {
		t.Error("dt=0 accepted")
	}
	bad = good
	bad.GlobalCells[1] = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cells accepted")
	}
	bad = good
	bad.Steps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero steps accepted")
	}
	bad = good
	bad.Oscillators = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty deck accepted")
	}
	// Decks built in code are held to ParseDeck's rule.
	for name, edit := range map[string]func(o *Oscillator){
		"nan radius":          func(o *Oscillator) { o.Radius = math.NaN() },
		"inf center":          func(o *Oscillator) { o.Center[2] = math.Inf(-1) },
		"nan zeta":            func(o *Oscillator) { o.Zeta = math.NaN() },
		"negative radius":     func(o *Oscillator) { o.Radius = -2 },
		"2R² underflows to 0": func(o *Oscillator) { o.Radius = 1e-200 },
		"2R² overflows to ∞":  func(o *Oscillator) { o.Radius = 1e200 },
		"2R² past the bound":  func(o *Oscillator) { o.Radius = 1e153 },
	} {
		bad = good
		bad.Oscillators = DefaultDeck(8)
		edit(&bad.Oscillators[1])
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "oscillator 1") {
			t.Errorf("%s: Validate() = %v, want an error naming oscillator 1", name, err)
		}
	}
	bad = good
	bad.Oscillators = []Oscillator{{Kind: Periodic, Radius: largestRadius(), Omega0: 1}}
	if err := bad.Validate(); err != nil {
		t.Errorf("the largest radius refused: %v", err)
	}
}

func TestSimDecompositionDisjointComplete(t *testing.T) {
	// Property: over various rank counts, the union of local cell counts is
	// the global cell count.
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		cfg := Config{GlobalCells: [3]int{12, 10, 8}, DT: 0.1, Steps: 1, Oscillators: DefaultDeck(12)}
		total := 0
		err := mpi.Run(n, func(c *mpi.Comm) error {
			s, err := NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			cnt := make([]int64, 1)
			if err := mpi.Allreduce(c, []int64{int64(len(s.Data))}, cnt, mpi.OpSum); err != nil {
				return err
			}
			if c.Rank() == 0 {
				total = int(cnt[0])
			}
			return nil
		})
		return err == nil && total == 12*10*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestSimStepMatchesDirectEvaluation(t *testing.T) {
	cfg := Config{GlobalCells: [3]int{6, 6, 6}, DT: 0.25, Steps: 3, Oscillators: DefaultDeck(6)}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		// After two steps the data reflects time dt (the value computed at
		// the start of step 2).
		e := s.LocalCellExtent
		idx := 0
		for k := e[4]; k <= e[5]; k++ {
			for j := e[2]; j <= e[3]; j++ {
				for i := e[0]; i <= e[1]; i++ {
					want := 0.0
					for _, o := range cfg.Oscillators {
						want += o.Evaluate(float64(i)+0.5, float64(j)+0.5, float64(k)+0.5, cfg.DT)
					}
					if math.Abs(s.Data[idx]-want) > 1e-12 {
						t.Errorf("rank %d cell (%d,%d,%d): %v want %v", c.Rank(), i, j, k, s.Data[idx], want)
						return nil
					}
					idx++
				}
			}
		}
		if s.StepIndex() != 2 || math.Abs(s.Time()-0.5) > 1e-12 {
			t.Errorf("step=%d time=%v", s.StepIndex(), s.Time())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimMemoryTracking(t *testing.T) {
	mem := metrics.NewTracker()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := NewSim(c, Config{GlobalCells: [3]int{4, 4, 4}, DT: 0.1, Steps: 1, Oscillators: DefaultDeck(4)}, mem); err != nil {
			return err
		}
		if mem.Named("oscillator/data") != 64*8 {
			t.Errorf("tracked=%d", mem.Named("oscillator/data"))
		}
		// Three oscillators: a 2-byte correction per cell each, and three
		// 4-entry float64 axis tables each.
		if got, want := mem.Named("oscillator/gaussians"), int64(3*64*2+3*(4+4+4)*8); got != want {
			t.Errorf("oscillator/gaussians tracked %d bytes, want %d", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimTooManyRanks(t *testing.T) {
	err := mpi.Run(9, func(c *mpi.Comm) error {
		_, err := NewSim(c, Config{GlobalCells: [3]int{1, 1, 1}, DT: 0.1, Steps: 1, Oscillators: DefaultDeck(1)}, nil)
		if err == nil {
			t.Error("expected empty-block error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataAdaptorZeroCopy(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSim(c, Config{GlobalCells: [3]int{4, 4, 4}, DT: 0.1, Steps: 1, Oscillators: DefaultDeck(4)}, nil)
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
		if err := d.AddArray(mesh, grid.CellData, "data"); err != nil {
			return err
		}
		a := mesh.Attributes(grid.CellData).Get("data")
		// Zero copy: mutating simulation data is visible through the array.
		s.Data[0] = 123.5
		if a.Value(0, 0) != 123.5 {
			t.Error("adaptor copied the data")
		}
		// Unknown arrays are errors.
		if err := d.AddArray(mesh, grid.CellData, "nope"); err == nil {
			t.Error("unknown array accepted")
		}
		if err := d.AddArray(mesh, grid.PointData, "data"); err == nil {
			t.Error("wrong association accepted")
		}
		names, _ := d.ArrayNames(grid.CellData)
		if len(names) != 1 || names[0] != "data" {
			t.Errorf("names=%v", names)
		}
		return d.ReleaseData()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataAdaptorForceCopy(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		mem := metrics.NewTracker()
		s, err := NewSim(c, Config{GlobalCells: [3]int{4, 4, 4}, DT: 0.1, Steps: 1, Oscillators: DefaultDeck(4)}, nil)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		d := NewDataAdaptor(s)
		d.ForceCopy = true
		d.Memory = mem
		d.Update()
		mesh, _ := d.Mesh(false)
		if err := d.AddArray(mesh, grid.CellData, "data"); err != nil {
			return err
		}
		a := mesh.Attributes(grid.CellData).Get("data")
		s.Data[0] = 555
		if a.Value(0, 0) == 555 {
			t.Error("ForceCopy still aliases")
		}
		if mem.Named("adaptor/copy") != 64*8 {
			t.Errorf("copy not tracked: %d", mem.Named("adaptor/copy"))
		}
		if err := d.ReleaseData(); err != nil {
			return err
		}
		if mem.Current() != 0 {
			t.Errorf("copy not freed: %d", mem.Current())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultDeckKinds(t *testing.T) {
	deck := DefaultDeck(64)
	kinds := map[Kind]bool{}
	for _, o := range deck {
		kinds[o.Kind] = true
		if o.Radius <= 0 {
			t.Error("non-positive radius in default deck")
		}
	}
	if !kinds[Periodic] || !kinds[Damped] || !kinds[Decaying] {
		t.Error("default deck missing a kind")
	}
}

func TestSimDecompositionInvariance(t *testing.T) {
	// The field is a pure function of (cell, time): any decomposition must
	// produce identical global data. Compare 1-rank and 6-rank runs cell by
	// cell after several steps.
	cfg := Config{GlobalCells: [3]int{10, 8, 6}, DT: 0.2, Steps: 3, Oscillators: DefaultDeck(10)}
	ref := map[[3]int]float64{}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		idx := 0
		e := s.LocalCellExtent
		for k := e[4]; k <= e[5]; k++ {
			for j := e[2]; j <= e[3]; j++ {
				for i := e[0]; i <= e[1]; i++ {
					ref[[3]int{i, j, k}] = s.Data[idx]
					idx++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 10*8*6 {
		t.Fatalf("reference holds %d cells", len(ref))
	}
	err = mpi.Run(6, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
		}
		idx := 0
		e := s.LocalCellExtent
		for k := e[4]; k <= e[5]; k++ {
			for j := e[2]; j <= e[3]; j++ {
				for i := e[0]; i <= e[1]; i++ {
					if s.Data[idx] != ref[[3]int{i, j, k}] {
						t.Errorf("rank %d cell (%d,%d,%d): %v != %v",
							c.Rank(), i, j, k, s.Data[idx], ref[[3]int{i, j, k}])
						return nil
					}
					idx++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
