// Tests for the scale-aware collective algorithms: element-identity against
// simple reference implementations, non-power-of-two communicators obtained
// through Split, non-zero roots, the fused min/max round-halving, and the
// bottleneck-rank byte reduction of the long-vector Allreduce.
package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refReduce folds rank vectors serially in rank order — the reference the
// tree algorithms must match. Integer ops and min/max must match exactly;
// float sums are compared with a tolerance because tree association differs.
func refReduce(op Op, vecs [][]float64) []float64 {
	out := append([]float64(nil), vecs[0]...)
	split := len(out) / 2
	for _, v := range vecs[1:] {
		for i := range out {
			switch op {
			case OpSum:
				out[i] += v[i]
			case OpProd:
				out[i] *= v[i]
			case OpMin:
				if v[i] < out[i] {
					out[i] = v[i]
				}
			case OpMax:
				if v[i] > out[i] {
					out[i] = v[i]
				}
			case OpMinMax:
				if i < split {
					if v[i] < out[i] {
						out[i] = v[i]
					}
				} else if v[i] > out[i] {
					out[i] = v[i]
				}
			}
		}
	}
	return out
}

func almostEqual(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d != %d", len(a), len(b))
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if diff > 1e-9*math.Max(scale, 1) {
			return fmt.Errorf("element %d: %g != %g", i, a[i], b[i])
		}
	}
	return nil
}

// TestAllreduceAllAlgorithmsMatchReference drives both the recursive-doubling
// and Rabenseifner paths (the element count straddles allreduceLongMin) at
// power-of-two and non-power-of-two sizes, for every op.
func TestAllreduceAllAlgorithmsMatchReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8}
	counts := []int{1, 2, 16, 1024, 4096} // 4096 float64 = 32KiB -> Rabenseifner
	ops := []Op{OpSum, OpMin, OpMax, OpProd, OpMinMax}
	for _, p := range sizes {
		for _, n := range counts {
			for _, op := range ops {
				if op == OpMinMax && n%2 != 0 {
					continue
				}
				rng := rand.New(rand.NewSource(int64(p*1000 + n + int(op))))
				vecs := make([][]float64, p)
				for r := range vecs {
					vecs[r] = make([]float64, n)
					for i := range vecs[r] {
						vecs[r][i] = rng.Float64()*2 - 1
						if op == OpProd {
							vecs[r][i] = 1 + rng.Float64()*0.01
						}
					}
				}
				want := refReduce(op, vecs)
				err := Run(p, func(c *Comm) error {
					recv := make([]float64, n)
					if err := Allreduce(c, vecs[c.Rank()], recv, op); err != nil {
						return err
					}
					if op == OpSum || op == OpProd {
						return almostEqual(recv, want)
					}
					for i := range recv {
						if recv[i] != want[i] {
							return fmt.Errorf("rank %d element %d: %g != %g", c.Rank(), i, recv[i], want[i])
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d n=%d op=%v: %v", p, n, op, err)
				}
			}
		}
	}
}

// TestAllreduceIntExactAcrossAlgorithms: integer reductions must be exact on
// every path, including the Rabenseifner fold for non-power-of-two sizes.
func TestAllreduceIntExactAcrossAlgorithms(t *testing.T) {
	for _, p := range []int{3, 5, 7, 8} {
		for _, n := range []int{8, 2048} { // straddles allreduceLongMin for int64
			want := make([]int64, n)
			vecs := make([][]int64, p)
			rng := rand.New(rand.NewSource(int64(p*100 + n)))
			for r := range vecs {
				vecs[r] = make([]int64, n)
				for i := range vecs[r] {
					vecs[r][i] = int64(rng.Intn(1000) - 500)
					want[i] += vecs[r][i]
				}
			}
			err := Run(p, func(c *Comm) error {
				recv := make([]int64, n)
				if err := Allreduce(c, vecs[c.Rank()], recv, OpSum); err != nil {
					return err
				}
				for i := range recv {
					if recv[i] != want[i] {
						return fmt.Errorf("rank %d element %d: %d != %d", c.Rank(), i, recv[i], want[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

// TestCollectivesOnSplitSubcommunicators runs the full collective set on
// Split-derived sub-communicators of sizes 3, 5, and 7 with non-zero roots.
// Sub-communicators exercise the group-indirection (comm rank != world rank)
// and context-isolation paths of every algorithm.
func TestCollectivesOnSplitSubcommunicators(t *testing.T) {
	world := 3 + 5 + 7
	err := Run(world, func(c *Comm) error {
		// Color by band: ranks [0,3) -> size 3, [3,8) -> size 5, [8,15) -> size 7.
		var color int
		switch {
		case c.Rank() < 3:
			color = 0
		case c.Rank() < 8:
			color = 1
		default:
			color = 2
		}
		sub, err := c.Split(color, -c.Rank()) // reversed key: sub rank != world order
		if err != nil {
			return err
		}
		p := sub.Size()
		root := p - 1 // non-zero root everywhere

		// Bcast, small and pipelined-large.
		for _, n := range []int{5, 20000} { // 20000 float64 = 156KiB > bcastSegBytes
			buf := make([]float64, n)
			if sub.Rank() == root {
				for i := range buf {
					buf[i] = float64(color*1000000 + i)
				}
			}
			if err := Bcast(sub, buf, root); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != float64(color*1000000+i) {
					return fmt.Errorf("bcast: color %d sub-rank %d element %d: got %g", color, sub.Rank(), i, buf[i])
				}
			}
		}

		// Reduce to a non-zero root.
		send := []int64{int64(sub.Rank() + 1), int64(sub.Rank() * 2)}
		recv := make([]int64, 2)
		if err := Reduce(sub, send, recv, OpSum, root); err != nil {
			return err
		}
		if sub.Rank() == root {
			wantA := int64(p * (p + 1) / 2)
			wantB := int64(p * (p - 1))
			if recv[0] != wantA || recv[1] != wantB {
				return fmt.Errorf("reduce: color %d got %v want [%d %d]", color, recv, wantA, wantB)
			}
		}

		// Gatherv of equal lengths to a non-zero root.
		parts, err := Gatherv(sub, []int32{int32(sub.Rank()), int32(color)}, root)
		if err != nil {
			return err
		}
		if sub.Rank() == root {
			for r := 0; r < p; r++ {
				if parts[r][0] != int32(r) || parts[r][1] != int32(color) {
					return fmt.Errorf("gather: color %d rank %d part %v", color, r, parts[r])
				}
			}
		} else if parts != nil {
			return fmt.Errorf("gather: non-root got non-nil result")
		}

		// Gatherv (variable lengths) to a non-zero root.
		mine := make([]int64, sub.Rank()+1)
		for i := range mine {
			mine[i] = int64(sub.Rank()*100 + i)
		}
		vparts, err := Gatherv(sub, mine, root)
		if err != nil {
			return err
		}
		if sub.Rank() == root {
			for r := 0; r < p; r++ {
				if len(vparts[r]) != r+1 {
					return fmt.Errorf("gatherv: color %d rank %d len %d", color, r, len(vparts[r]))
				}
				for i, v := range vparts[r] {
					if v != int64(r*100+i) {
						return fmt.Errorf("gatherv: color %d rank %d element %d: %d", color, r, i, v)
					}
				}
			}
		}

		// Variable-length parts from a non-zero root, scattered as an
		// Alltoall in which only the root's parts are non-empty.
		sparts := make([][]float32, p)
		if sub.Rank() == root {
			for r := range sparts {
				sparts[r] = make([]float32, r+2)
				for i := range sparts[r] {
					sparts[r][i] = float32(r) + float32(i)/10
				}
			}
		}
		scattered, err := Alltoall(sub, sparts)
		if err != nil {
			return err
		}
		got := scattered[root]
		if len(got) != sub.Rank()+2 {
			return fmt.Errorf("scatter: color %d sub-rank %d len %d", color, sub.Rank(), len(got))
		}
		for i, v := range got {
			if v != float32(sub.Rank())+float32(i)/10 {
				return fmt.Errorf("scatter: color %d sub-rank %d element %d: %g", color, sub.Rank(), i, v)
			}
		}

		// Allgather with variable lengths.
		flat, err := Allgather(sub, mine)
		if err != nil {
			return err
		}
		wantLen := 0
		for r := 0; r < p; r++ {
			wantLen += r + 1
		}
		if len(flat) != wantLen {
			return fmt.Errorf("allgather: color %d len %d want %d", color, len(flat), wantLen)
		}
		for r, off := 0, 0; r < p; off, r = off+r+1, r+1 {
			if flat[off] != int64(r*100) {
				return fmt.Errorf("allgather: color %d rank %d starts with %d", color, r, flat[off])
			}
		}

		// Alltoall.
		out := make([][]int32, p)
		for r := range out {
			out[r] = []int32{int32(sub.Rank()*100 + r)}
		}
		in, err := Alltoall(sub, out)
		if err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if in[r][0] != int32(r*100+sub.Rank()) {
				return fmt.Errorf("alltoall: color %d from %d got %d", color, r, in[r][0])
			}
		}

		// Fused min/max on the sub-communicator.
		lo := []float64{float64(sub.Rank())}
		hi := []float64{float64(sub.Rank())}
		if err := AllreduceMinMax(sub, lo, hi); err != nil {
			return err
		}
		if lo[0] != 0 || hi[0] != float64(p-1) {
			return fmt.Errorf("minmax: color %d got [%g %g] want [0 %d]", color, lo[0], hi[0], p-1)
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFusedMinMaxHalvesRounds asserts the satellite claim with the traffic
// odometers: one fused OpMinMax allreduce sends exactly half the messages of
// the separate min + max pair at a power-of-two size.
func TestFusedMinMaxHalvesRounds(t *testing.T) {
	const p = 8
	var pairMsgs, fusedMsgs int64
	err := Run(p, func(c *Comm) error {
		lo, hi := []float64{float64(c.Rank())}, []float64{float64(-c.Rank())}
		g := make([]float64, 1)

		before := c.TrafficStats()
		if err := Allreduce(c, lo, g, OpMin); err != nil {
			return err
		}
		if err := Allreduce(c, hi, g, OpMax); err != nil {
			return err
		}
		mid := c.TrafficStats()
		if err := AllreduceMinMax(c, lo, hi); err != nil {
			return err
		}
		after := c.TrafficStats()
		if c.Rank() == 0 {
			pairMsgs = mid.SentMsgs - before.SentMsgs
			fusedMsgs = after.SentMsgs - mid.SentMsgs
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fusedMsgs*2 != pairMsgs {
		t.Fatalf("fused %d msgs, pair %d msgs: want exactly half", fusedMsgs, pairMsgs)
	}
}

// TestAllreduceBottleneckBytes is the acceptance-criteria check: for a
// >=256KiB payload at P=16, the bytes moved through the most-loaded rank by
// the new Allreduce must be at most half those of the reduce+bcast baseline
// (which this package still exposes as Reduce and Bcast).
func TestAllreduceBottleneckBytes(t *testing.T) {
	const (
		p = 16
		n = 32768 // float64 -> 256KiB
	)
	baseDelta := make([]int64, p)
	newDelta := make([]int64, p)
	err := Run(p, func(c *Comm) error {
		send := make([]float64, n)
		recv := make([]float64, n)
		for i := range send {
			send[i] = float64(c.Rank()*n + i)
		}

		before := c.TrafficStats()
		if err := Reduce(c, send, recv, OpSum, 0); err != nil {
			return err
		}
		if err := Bcast(c, recv, 0); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		mid := c.TrafficStats()
		if err := Allreduce(c, send, recv, OpSum); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		after := c.TrafficStats()
		baseDelta[c.Rank()] = (mid.SentBytes - before.SentBytes) + (mid.RecvBytes - before.RecvBytes)
		newDelta[c.Rank()] = (after.SentBytes - mid.SentBytes) + (after.RecvBytes - mid.RecvBytes)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var baseMax, newMax int64
	for r := 0; r < p; r++ {
		if baseDelta[r] > baseMax {
			baseMax = baseDelta[r]
		}
		if newDelta[r] > newMax {
			newMax = newDelta[r]
		}
	}
	t.Logf("bottleneck-rank bytes: reduce+bcast %d, allreduce %d (%.2fx)", baseMax, newMax, float64(baseMax)/float64(newMax))
	if baseMax < 2*newMax {
		t.Fatalf("bottleneck bytes not halved: baseline %d, new %d", baseMax, newMax)
	}
}

// TestCollectiveResultsDoNotAliasPools: results handed to callers must stay
// intact when later collectives recycle internal buffers.
func TestCollectiveResultsDoNotAliasPools(t *testing.T) {
	const p = 5
	err := Run(p, func(c *Comm) error {
		first, err := Allgather(c, []int64{int64(c.Rank()) * 11})
		if err != nil {
			return err
		}
		snapshot := append([]int64(nil), first...)
		// Churn the pools with more collectives of the same element type.
		for iter := 0; iter < 10; iter++ {
			if _, err := Allgather(c, []int64{int64(iter)}); err != nil {
				return err
			}
			g := make([]int64, 1)
			if err := Allreduce(c, []int64{int64(iter)}, g, OpSum); err != nil {
				return err
			}
		}
		for i := range first {
			if first[i] != snapshot[i] {
				return fmt.Errorf("result mutated at %d: %d != %d", i, first[i], snapshot[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScatterGatherPropertyNonPow2 is the quick property test across random
// sizes, roots, and part lengths: scattering the root's partition (an
// Alltoall in which only the root's parts are non-empty) and gathering it
// back with Gatherv must reproduce it exactly.
func TestScatterGatherPropertyNonPow2(t *testing.T) {
	f := func(seed int64, nRaw, rootRaw uint8) bool {
		p := int(nRaw%7) + 2 // 2..8
		root := int(rootRaw) % p
		rng := rand.New(rand.NewSource(seed))
		parts := make([][]float64, p)
		for i := range parts {
			parts[i] = make([]float64, rng.Intn(6))
			for j := range parts[i] {
				parts[i][j] = rng.NormFloat64()
			}
		}
		err := Run(p, func(c *Comm) error {
			in := make([][]float64, p)
			if c.Rank() == root {
				in = parts
			}
			scattered, err := Alltoall(c, in)
			if err != nil {
				return err
			}
			mine := scattered[root]
			back, err := Gatherv(c, mine, root)
			if err != nil {
				return err
			}
			if c.Rank() == root {
				for r := range parts {
					if len(back[r]) != len(parts[r]) {
						return fmt.Errorf("rank %d length %d != %d", r, len(back[r]), len(parts[r]))
					}
					for j := range parts[r] {
						if back[r][j] != parts[r][j] {
							return fmt.Errorf("rank %d element %d mismatch", r, j)
						}
					}
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// TestAllgatherPropertyMatchesReference: ring allgather must equal the
// rank-ordered concatenation for random lengths and sizes.
func TestAllgatherPropertyMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		p := int(nRaw%7) + 2
		rng := rand.New(rand.NewSource(seed))
		vecs := make([][]int32, p)
		var want []int32
		for r := range vecs {
			vecs[r] = make([]int32, rng.Intn(5))
			for i := range vecs[r] {
				vecs[r][i] = rng.Int31()
			}
			want = append(want, vecs[r]...)
		}
		err := Run(p, func(c *Comm) error {
			got, err := Allgather(c, vecs[c.Rank()])
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("length %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("element %d mismatch", i)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

// TestOpMinMaxOddLengthRejected: the fused op requires an even vector.
func TestOpMinMaxOddLengthRejected(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		recv := make([]float64, 3)
		return Allreduce(c, []float64{1, 2, 3}, recv, OpMinMax)
	})
	if err == nil {
		t.Fatal("expected odd-length OpMinMax error")
	}
}
