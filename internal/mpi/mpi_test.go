package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 7, []float64{1, 2, 3})
			return nil
		}
		data, src, err := Recv[float64](c, 0, 7)
		if err != nil {
			return err
		}
		if src != 0 || len(data) != 3 || data[2] != 3 {
			return fmt.Errorf("bad recv: src=%d data=%v", src, data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []int64{42}
			Send(c, 1, 0, buf)
			buf[0] = 99 // must not affect the message
			c.Barrier()
			return nil
		}
		c.Barrier()
		data, _, err := Recv[int64](c, 0, 0)
		if err != nil {
			return err
		}
		if data[0] != 42 {
			return fmt.Errorf("send did not copy: got %d", data[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 5, []int{5})
			Send(c, 1, 3, []int{3})
			return nil
		}
		// Receive tag 3 first even though tag 5 was sent first.
		d3, _, err := Recv[int](c, 0, 3)
		if err != nil {
			return err
		}
		d5, _, err := Recv[int](c, 0, 5)
		if err != nil {
			return err
		}
		if d3[0] != 3 || d5[0] != 5 {
			return fmt.Errorf("tag matching broken: %v %v", d3, d5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			Send(c, 0, c.Rank()*10, []int{c.Rank()})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, src, err := Recv[int](c, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if data[0] != src {
				return fmt.Errorf("payload %d != src %d", data[0], src)
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing sources: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTypeMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 0, []float64{1})
			return nil
		}
		_, _, err := Recv[int32](c, 0, 0)
		if err == nil {
			return fmt.Errorf("expected type mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockTimeout(t *testing.T) {
	start := time.Now()
	err := Run(1, func(c *Comm) error {
		_, _, err := Recv[int](c, 0, 0)
		return err
	}, WithRecvTimeout(50*time.Millisecond))
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestRunPanicRecovered(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestBarrierOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		var before, after atomic.Int64
		err := Run(n, func(c *Comm) error {
			before.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := before.Load(); got != int64(n) {
				return fmt.Errorf("barrier released with only %d/%d ranks entered", got, n)
			}
			after.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if after.Load() != int64(n) {
			t.Fatalf("n=%d: %d ranks finished", n, after.Load())
		}
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root++ {
			err := Run(n, func(c *Comm) error {
				buf := make([]float64, 4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float64(root*100 + i)
					}
				}
				if err := Bcast(c, buf, root); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != float64(root*100+i) {
						return fmt.Errorf("rank %d: buf=%v", c.Rank(), buf)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestReduceOps(t *testing.T) {
	n := 6
	cases := []struct {
		op   Op
		want float64
	}{
		{OpSum, 0 + 1 + 2 + 3 + 4 + 5},
		{OpMin, 0},
		{OpMax, 5},
		{OpProd, 0},
	}
	for _, tc := range cases {
		for root := 0; root < n; root += 3 {
			err := Run(n, func(c *Comm) error {
				send := []float64{float64(c.Rank())}
				recv := make([]float64, 1)
				if err := Reduce(c, send, recv, tc.op, root); err != nil {
					return err
				}
				if c.Rank() == root && recv[0] != tc.want {
					return fmt.Errorf("op %v: got %v want %v", tc.op, recv[0], tc.want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("op=%v root=%d: %v", tc.op, root, err)
			}
		}
	}
}

func TestAllreduceMatchesSerial(t *testing.T) {
	n, m := 7, 9
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]float64, n)
	want := make([]float64, m)
	for r := range inputs {
		inputs[r] = make([]float64, m)
		for i := range inputs[r] {
			inputs[r][i] = rng.Float64()*10 - 5
			want[i] += inputs[r][i]
		}
	}
	err := Run(n, func(c *Comm) error {
		recv := make([]float64, m)
		if err := Allreduce(c, inputs[c.Rank()], recv, OpSum); err != nil {
			return err
		}
		for i := range recv {
			if diff := recv[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("rank %d idx %d: got %v want %v", c.Rank(), i, recv[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceQuickProperty(t *testing.T) {
	// Property: allreduce(min) over random per-rank int64 vectors equals the
	// serial minimum, for arbitrary world sizes 1..8 and vector lengths 1..16.
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%8) + 1
		m := int(mRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]int64, n)
		want := make([]int64, m)
		for i := range want {
			want[i] = 1 << 62
		}
		for r := range inputs {
			inputs[r] = make([]int64, m)
			for i := range inputs[r] {
				inputs[r][i] = rng.Int63n(2001) - 1000
				if inputs[r][i] < want[i] {
					want[i] = inputs[r][i]
				}
			}
		}
		ok := true
		err := Run(n, func(c *Comm) error {
			recv := make([]int64, m)
			if err := Allreduce(c, inputs[c.Rank()], recv, OpMin); err != nil {
				return err
			}
			for i := range recv {
				if recv[i] != want[i] {
					return fmt.Errorf("mismatch")
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherOrdered(t *testing.T) {
	n := 5
	err := Run(n, func(c *Comm) error {
		parts, err := Gatherv(c, []int{c.Rank(), c.Rank() * 2}, 2)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root got parts")
			}
			return nil
		}
		for i, p := range parts {
			if p[0] != i || p[1] != i*2 {
				return fmt.Errorf("part %d = %v", i, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScatter scatters rank 1's parts as an Alltoall in which only rank 1's
// parts are non-empty.
func TestScatter(t *testing.T) {
	n := 4
	err := Run(n, func(c *Comm) error {
		parts := make([][]float32, n)
		if c.Rank() == 1 {
			for i := range parts {
				parts[i] = []float32{float32(i) * 1.5}
			}
		}
		got, err := Alltoall(c, parts)
		if err != nil {
			return err
		}
		mine := got[1]
		if mine[0] != float32(c.Rank())*1.5 {
			return fmt.Errorf("rank %d got %v", c.Rank(), mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanInclusive computes an inclusive prefix sum from an Allgather: each
// rank sums the contributions of ranks 0..itself.
func TestScanInclusive(t *testing.T) {
	n := 6
	err := Run(n, func(c *Comm) error {
		all, err := Allgather(c, []int64{int64(c.Rank() + 1)})
		if err != nil {
			return err
		}
		var prefix int64
		for _, v := range all[:c.Rank()+1] {
			prefix += v
		}
		want := int64((c.Rank() + 1) * (c.Rank() + 2) / 2)
		if prefix != want {
			return fmt.Errorf("rank %d: got %d want %d", c.Rank(), prefix, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherVariableLengths(t *testing.T) {
	n := 4
	err := Run(n, func(c *Comm) error {
		// Rank r contributes r+1 copies of r.
		send := make([]int, c.Rank()+1)
		for i := range send {
			send[i] = c.Rank()
		}
		all, err := Allgather(c, send)
		if err != nil {
			return err
		}
		want := []int{0, 1, 1, 2, 2, 2, 3, 3, 3, 3}
		if len(all) != len(want) {
			return fmt.Errorf("len=%d", len(all))
		}
		for i := range want {
			if all[i] != want[i] {
				return fmt.Errorf("all=%v", all)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	n := 4
	err := Run(n, func(c *Comm) error {
		parts := make([][]int, n)
		for i := range parts {
			parts[i] = []int{c.Rank()*10 + i}
		}
		got, err := Alltoall(c, parts)
		if err != nil {
			return err
		}
		for i := range got {
			if got[i][0] != i*10+c.Rank() {
				return fmt.Errorf("rank %d got %v", c.Rank(), got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitColors(t *testing.T) {
	n := 8
	err := Run(n, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 4 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		if sub.Rank() != c.Rank()/2 {
			return fmt.Errorf("world %d -> sub %d", c.Rank(), sub.Rank())
		}
		// Traffic in sub must not leak across colors.
		recv := make([]int64, 1)
		if err := Allreduce(sub, []int64{int64(c.Rank())}, recv, OpSum); err != nil {
			return err
		}
		want := int64(0 + 2 + 4 + 6)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if recv[0] != want {
			return fmt.Errorf("rank %d: sub sum %d want %d", c.Rank(), recv[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReordering(t *testing.T) {
	n := 4
	err := Run(n, func(c *Comm) error {
		// All one color; keys reverse the order.
		sub, err := c.Split(0, n-c.Rank())
		if err != nil {
			return err
		}
		if sub.Rank() != n-1-c.Rank() {
			return fmt.Errorf("world %d -> sub %d", c.Rank(), sub.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	n := 4
	err := Run(n, func(c *Comm) error {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		got, err := SendRecv(c, right, 1, []int{c.Rank()}, left, 1)
		if err != nil {
			return err
		}
		if got[0] != left {
			return fmt.Errorf("rank %d got %v want %d", c.Rank(), got, left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldRank(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		sub, err := c.Split(c.Rank()/3, 0)
		if err != nil {
			return err
		}
		if sub.WorldRank() != c.Rank() {
			return fmt.Errorf("world rank lost: %d vs %d", sub.WorldRank(), c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsNonPositive(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("expected error for n=0")
	}
}

// TestRunFailsSurvivorsFast: a rank that fails while another waits to
// receive from it ends the run at once, with its error, instead of leaving
// the survivor to wait out the receive timeout.
func TestRunFailsSurvivorsFast(t *testing.T) {
	boom := errors.New("boom")
	start := time.Now()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, _, err := Recv[int](c, 1, 7)
		return err
	}, WithRecvTimeout(20*time.Second))
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the failed rank's error", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the survivor waited %v for a failed rank", d)
	}
}
