package oscillator

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gosensei/internal/mpi"
	"gosensei/internal/parallel"
)

// stepReference is Sim.Step as it stood before the Gaussians were cached:
// one exp per cell and oscillator, every step. It is kept verbatim but for
// its outputs (the field at time t goes to a fresh slice) and its hoisted
// constants (computed here, not read from the Sim). Every Step must write
// the same bits.
func stepReference(s *Sim, t float64) []float64 {
	amps := make([]float64, len(s.Cfg.Oscillators))
	twoR2 := make([]float64, len(s.Cfg.Oscillators))
	for i, o := range s.Cfg.Oscillators {
		amps[i] = o.Amplitude(t)
		twoR2[i] = 2 * o.Radius * o.Radius
	}
	out := make([]float64, len(s.Data))
	e := s.LocalCellExtent
	nx := e[1] - e[0] + 1
	ny := e[3] - e[2] + 1
	nz := e[5] - e[4] + 1
	oscs := s.Cfg.Oscillators
	parallel.For(s.workers, nz, 1, func(klo, khi int) {
		for kk := klo; kk < khi; kk++ {
			k := e[4] + kk
			z := float64(k) + 0.5
			idx := kk * nx * ny
			for j := e[2]; j <= e[3]; j++ {
				y := float64(j) + 0.5
				for i := e[0]; i <= e[1]; i++ {
					x := float64(i) + 0.5
					v := 0.0
					for oi := range oscs {
						o := &oscs[oi]
						dx := x - o.Center[0]
						dy := y - o.Center[1]
						dz := z - o.Center[2]
						d2 := dx*dx + dy*dy + dz*dz
						v += amps[oi] * math.Exp(-d2/twoR2[oi])
					}
					out[idx] = v
					idx++
				}
			}
		}
	})
	return out
}

// stepsMatchReference runs cfg on np ranks and requires every step's Data,
// the first included, to be bit-equal to stepReference at that step's time.
func stepsMatchReference(t *testing.T, name string, np int, cfg Config) {
	t.Helper()
	err := mpi.Run(np, func(c *mpi.Comm) error {
		s, err := NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		for step := 0; step < cfg.Steps; step++ {
			want := stepReference(s, s.Time())
			if err := s.Step(); err != nil {
				return err
			}
			for i, w := range want {
				if math.Float64bits(s.Data[i]) != math.Float64bits(w) {
					return fmt.Errorf("rank %d step %d cell %d: %v (%#x), reference %v (%#x)",
						c.Rank(), step, i, s.Data[i], math.Float64bits(s.Data[i]), w, math.Float64bits(w))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// randomConfig draws a non-cubic grid of 4–13 cells an edge, a time step,
// and 1–6 oscillators of every kind: radii from e⁻⁴ to e⁴ times the longest
// edge, centers from half an edge before the domain to half an edge past it.
func randomConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	dims := [3]int{4 + rng.Intn(10), 4 + rng.Intn(10), 4 + rng.Intn(10)}
	edge := float64(max(dims[0], dims[1], dims[2]))
	deck := make([]Oscillator, 1+rng.Intn(6))
	for i := range deck {
		o := Oscillator{
			Kind:   Kind(rng.Intn(3)),
			Radius: edge * math.Exp(8*rng.Float64()-4),
			Omega0: 0.5 + 10*rng.Float64(),
			Zeta:   rng.Float64(),
		}
		for ax := range o.Center {
			o.Center[ax] = float64(dims[ax]) * (2*rng.Float64() - 0.5)
		}
		deck[i] = o
	}
	return Config{GlobalCells: dims, DT: 0.05 + 0.3*rng.Float64(), Steps: 5, Oscillators: deck}
}

func TestStepMatchesReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		cfg := randomConfig(int64(43 + trial))
		np, threads := 1+trial%4, []int{1, 2, 8}[trial%3]
		cfg.Threads = threads
		stepsMatchReference(t, fmt.Sprintf("trial %d (np %d, threads %d, grid %v, %d oscillators)", trial, np, threads, cfg.GlobalCells, len(cfg.Oscillators)), np, cfg)
	}
	// The shipped deck at a size where every worker has several slabs.
	stepsMatchReference(t, "default deck 24x20x16", 3, Config{GlobalCells: [3]int{24, 20, 16}, DT: 0.05, Steps: 4, Oscillators: DefaultDeck(24), Threads: 8})
}

// largestRadius is the largest radius whose 2R² Validate accepts.
func largestRadius() float64 {
	r := math.Sqrt(maxTwoR2 / 2)
	for 2*r*r > maxTwoR2 {
		r = math.Nextafter(r, 0)
	}
	return r
}

// TestGaussianCorrectionsFit: for any deck Validate accepts, the first Step
// finds every Gaussian within int16 ulps of its separable product, and the
// cached steps after it still match the reference bit for bit.
func TestGaussianCorrectionsFit(t *testing.T) {
	dims := [3]int{6, 5, 4}
	run := func(name string, deck []Oscillator) {
		cfg := Config{GlobalCells: dims, DT: 0.3, Steps: 3, Oscillators: deck}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for np := 1; np <= 2; np++ {
			stepsMatchReference(t, fmt.Sprintf("%s at np %d", name, np), np, cfg)
		}
	}
	rMax := largestRadius()
	// 2R² at the bound, with centers where d² is finite yet each axis term
	// is large, and where d² overflows while no axis term does.
	for _, c := range []float64{-5e153, -7.7e153, 1e154, -1e300, 1e300} {
		run(fmt.Sprintf("radius %v center %v", rMax, c), []Oscillator{{Kind: Periodic, Center: [3]float64{c, c, c}, Radius: rMax, Omega0: 3}})
	}
	for _, r := range []float64{1e-150, 1e150} {
		for _, c := range []float64{-1e300, 1e300, 2.5, 0.5} {
			run(fmt.Sprintf("radius %v center %v", r, c), []Oscillator{{Kind: Decaying, Center: [3]float64{c, 2.5, -c}, Radius: r, Omega0: 3, Zeta: 0.2}})
		}
	}
	// A unit Gaussian 35–43 cells away: its values cross exp's underflow
	// through the subnormals.
	run("underflow band", []Oscillator{{Kind: Damped, Center: [3]float64{-35, 1, 1}, Radius: 1, Omega0: 3, Zeta: 0.3}})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		deck := make([]Oscillator, 1+rng.Intn(4))
		for i := range deck {
			o := Oscillator{Kind: Kind(rng.Intn(3)), Radius: math.Pow(10, 300*rng.Float64()-150), Omega0: 2, Zeta: 0.4}
			if rng.Intn(4) == 0 {
				o.Radius = rMax
			}
			for ax := range o.Center {
				switch rng.Intn(3) {
				case 0: // in or near the domain
					o.Center[ax] = float64(dims[ax]) * (2*rng.Float64() - 0.5)
				default: // anywhere out to ±1e300
					o.Center[ax] = math.Copysign(math.Pow(10, 300*rng.Float64()), rng.Float64()-0.5)
				}
			}
			deck[i] = o
		}
		before := t.Failed()
		run(fmt.Sprintf("seed %d", seed), deck)
		return t.Failed() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// TestStepRefusesAnOverflowingCorrection: a Gaussian too far from its
// separable product for int16 is an error from Step, every time, and never
// a stored correction. No deck Validate accepts reaches it, so the test
// raises 2R² past the bound behind Validate's back.
func TestStepRefusesAnOverflowingCorrection(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSim(c, Config{GlobalCells: [3]int{4, 3, 2}, DT: 0.5, Steps: 3, Oscillators: DefaultDeck(4)}, nil)
		if err != nil {
			return err
		}
		// d² overflows to +Inf while each axis term is e^-50: the direct
		// sum reads 0 and the product e^-150.
		s.Cfg.Oscillators[1].Center = [3]float64{-1e154, -1e154, -1e154}
		s.twoR2[1] = 2e306
		for try := 0; try < 2; try++ {
			err := s.Step()
			if err == nil || !strings.Contains(err.Error(), "oscillator 1 at cell (0,0,0)") {
				t.Errorf("try %d: Step() = %v, want an error naming oscillator 1 at cell (0,0,0)", try, err)
			}
			if s.StepIndex() != 0 {
				t.Errorf("try %d: a failed first step advanced to %d", try, s.StepIndex())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
