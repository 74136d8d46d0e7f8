package main

import (
	"hash/crc32"
	"math/rand"

	"gosensei/internal/live"
	"gosensei/internal/oscillator"
)

// sampleDeck is decks/sample.osc (a 32-cell domain), the deck every seeded
// input is jittered around. It is restated here because the benchmark may
// read nothing outside its own directory.
var sampleDeck = []oscillator.Oscillator{
	{Kind: oscillator.Damped, Center: [3]float64{16, 16, 24}, Radius: 6, Omega0: 3.14, Zeta: 0.3},
	{Kind: oscillator.Periodic, Center: [3]float64{24, 24, 16}, Radius: 4, Omega0: 9.5},
	{Kind: oscillator.Decaying, Center: [3]float64{16, 24, 16}, Radius: 8, Omega0: 4.8, Zeta: 0.1},
}

const (
	sampleDeckEdge = 32
	// jitter is the relative half-width of the seeded perturbation: every
	// seed computes different fields, yet PNG and delta+flate sizes — exact
	// counts that follow the data — stay within a third of their bound
	// (at 2 % the PNG size alone scattered by 4 %).
	jitter = 0.005

	liveFrameBytes = 64 << 10
	// liveBodies distinct frame bodies cycle through a live run, so
	// consecutive frames differ and a stale frame fails its checksum.
	liveBodies = 16
)

// inputs is everything a run derives from --seed; the program under test
// sees only these.
type inputs struct {
	seed int64
	deck []oscillator.Oscillator // jittered, still in sample-deck units
	// sliceFrac places the render workload's slice plane, as a fraction of
	// the domain edge: somewhere inside the cell layer above the mid-plane
	// of a 32-cell grid, so every seed cuts the same cells at another
	// coordinate.
	sliceFrac float64
	bodies    [][]byte
	bodyCRC   []uint32
}

func makeInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	jit := func(v float64) float64 { return v * (1 + jitter*(2*rng.Float64()-1)) }
	in := &inputs{seed: seed}
	for _, o := range sampleDeck {
		for ax := range o.Center {
			o.Center[ax] += sampleDeckEdge * jitter * (2*rng.Float64() - 1)
		}
		o.Radius = jit(o.Radius)
		o.Omega0 = jit(o.Omega0)
		o.Zeta = jit(o.Zeta)
		in.deck = append(in.deck, o)
	}
	in.sliceFrac = (16.5 + 0.4*(2*rng.Float64()-1)) / sampleDeckEdge
	for i := 0; i < liveBodies; i++ {
		b := make([]byte, liveFrameBytes)
		rng.Read(b) // math/rand's Read always fills b and never fails
		in.bodies = append(in.bodies, b)
		in.bodyCRC = append(in.bodyCRC, crc32.ChecksumIEEE(b))
	}
	return in
}

// deckFor scales the jittered deck to a grid of the given edge.
func (in *inputs) deckFor(cells int) []oscillator.Oscillator {
	s := float64(cells) / sampleDeckEdge
	out := make([]oscillator.Oscillator, len(in.deck))
	for i, o := range in.deck {
		for ax := range o.Center {
			o.Center[ax] *= s
		}
		o.Radius *= s
		out[i] = o
	}
	return out
}

// frame is the k-th live frame: the bodies cycle, the step counts on.
func (in *inputs) frame(k int) live.Frame {
	return live.Frame{Step: k, Width: 256, Height: 64, PNG: in.bodies[k%liveBodies]}
}
