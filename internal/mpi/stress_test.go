package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestStressRandomExchange floods the runtime with randomized point-to-point
// traffic: every rank sends a deterministic pseudo-random number of messages
// with random tags to random peers, then receives exactly what it is owed.
// Ordering per (src, dst, tag) must be FIFO.
func TestStressRandomExchange(t *testing.T) {
	const (
		n        = 8
		perRank  = 200
		tagSpace = 5
	)
	// Precompute the traffic matrix deterministically so every rank knows
	// what to expect: plan[src][dst][tag] = count.
	plan := make([][][]int, n)
	rng := rand.New(rand.NewSource(99))
	for src := range plan {
		plan[src] = make([][]int, n)
		for dst := range plan[src] {
			plan[src][dst] = make([]int, tagSpace)
		}
		for m := 0; m < perRank; m++ {
			dst := rng.Intn(n)
			tag := rng.Intn(tagSpace)
			plan[src][dst][tag]++
		}
	}
	err := Run(n, func(c *Comm) error {
		// Send phase: seq numbers per (dst, tag) stream to verify FIFO.
		seq := map[[2]int]int64{}
		myPlan := plan[c.Rank()]
		for dst := 0; dst < n; dst++ {
			for tag := 0; tag < tagSpace; tag++ {
				for k := 0; k < myPlan[dst][tag]; k++ {
					key := [2]int{dst, tag}
					Send(c, dst, tag, []int64{seq[key]})
					seq[key]++
				}
			}
		}
		// Receive phase: drain everything owed to me, checking stream order.
		next := map[[2]int]int64{}
		for src := 0; src < n; src++ {
			for tag := 0; tag < tagSpace; tag++ {
				owed := plan[src][c.Rank()][tag]
				for k := 0; k < owed; k++ {
					data, from, err := Recv[int64](c, src, tag)
					if err != nil {
						return err
					}
					key := [2]int{from, tag}
					if data[0] != next[key] {
						return fmt.Errorf("rank %d: stream (%d,%d) got seq %d want %d",
							c.Rank(), from, tag, data[0], next[key])
					}
					next[key]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressCollectiveSequences runs a long mixed sequence of collectives to
// shake out any cross-collective tag interference.
func TestStressCollectiveSequences(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		for round := 0; round < 30; round++ {
			v := []float64{float64(c.Rank() + round)}
			sum := make([]float64, 1)
			if err := Allreduce(c, v, sum, OpSum); err != nil {
				return err
			}
			want := float64(n*(n-1)/2 + n*round)
			if sum[0] != want {
				return fmt.Errorf("round %d: sum=%v want %v", round, sum[0], want)
			}
			buf := []int64{int64(round)}
			if c.Rank() != round%n {
				buf[0] = -1
			}
			if err := Bcast(c, buf, round%n); err != nil {
				return err
			}
			if buf[0] != int64(round) {
				return fmt.Errorf("round %d: bcast=%v", round, buf[0])
			}
			if round%7 == 0 {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNested exercises communicator splits of splits with traffic on
// every level simultaneously.
func TestSplitNested(t *testing.T) {
	err := Run(8, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		// Sum world ranks within each quarter: quarters are {0,1},{2,3},...
		got := make([]int64, 1)
		if err := Allreduce(quarter, []int64{int64(c.Rank())}, got, OpSum); err != nil {
			return err
		}
		base := (c.Rank() / 2) * 2
		want := int64(base + base + 1)
		if got[0] != want {
			return fmt.Errorf("rank %d: quarter sum %d want %d", c.Rank(), got[0], want)
		}
		// And the world is still usable.
		tot := make([]int64, 1)
		if err := Allreduce(c, []int64{1}, tot, OpSum); err != nil {
			return err
		}
		if tot[0] != 8 {
			return fmt.Errorf("world damaged: %d", tot[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherScatterInverse: scattering a partition from rank 0 (an Alltoall
// in which only rank 0's parts are non-empty) and gathering it back
// reproduces it, for random part sizes.
func TestGatherScatterInverse(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		parts := make([][]float64, n)
		for i := range parts {
			parts[i] = make([]float64, rng.Intn(5)+1)
			for j := range parts[i] {
				parts[i][j] = rng.Float64()
			}
		}
		ok := true
		err := Run(n, func(c *Comm) error {
			in := make([][]float64, n)
			if c.Rank() == 0 {
				in = parts
			}
			scattered, err := Alltoall(c, in)
			if err != nil {
				return err
			}
			mine := scattered[0]
			back, err := Gatherv(c, mine, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				for i := range parts {
					if len(back[i]) != len(parts[i]) {
						return fmt.Errorf("len mismatch")
					}
					for j := range parts[i] {
						if back[i][j] != parts[i][j] {
							return fmt.Errorf("value mismatch")
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}
