package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedInjector is a minimal FaultInjector for exercising the hook
// without importing internal/faultline (which imports this package): it
// keeps the per-edge sequence numbers the dedup path needs and delegates the
// decision to a closure.
type scriptedInjector struct {
	mu     sync.Mutex
	edges  map[[2]int]uint64
	decide func(src, dst, tag int, seq uint64) SendFault
}

func newScriptedInjector(decide func(src, dst, tag int, seq uint64) SendFault) *scriptedInjector {
	return &scriptedInjector{edges: map[[2]int]uint64{}, decide: decide}
}

func (s *scriptedInjector) BeforeSend(src, dst, tag int) SendFault {
	s.mu.Lock()
	s.edges[[2]int{src, dst}]++
	seq := s.edges[[2]int{src, dst}]
	s.mu.Unlock()
	f := s.decide(src, dst, tag, seq)
	f.Seq = seq
	return f
}

// TestFaultsDupDelivered exercises the dedup high-water mark: with every
// message duplicated, a tag-ordered exchange must still deliver each payload
// exactly once, in order.
func TestFaultsDupDelivered(t *testing.T) {
	inj := newScriptedInjector(func(src, dst, tag int, seq uint64) SendFault {
		return SendFault{Dup: true}
	})
	err := Run(2, func(c *Comm) error {
		const n = 10
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				Send(c, 1, 7, []int{i})
			}
			// A second tag stream interleaved on the same edge.
			for i := 0; i < n; i++ {
				Send(c, 1, 8, []int{100 + i})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, _, err := Recv[int](c, 0, 7)
			if err != nil {
				return err
			}
			if got[0] != i {
				return fmt.Errorf("tag 7 msg %d: got %d", i, got[0])
			}
		}
		for i := 0; i < n; i++ {
			got, _, err := Recv[int](c, 0, 8)
			if err != nil {
				return err
			}
			if got[0] != 100+i {
				return fmt.Errorf("tag 8 msg %d: got %d", i, got[0])
			}
		}
		// The mailbox must now be empty: a surviving duplicate would match
		// this wildcard receive instead of timing out.
		if _, _, err := Recv[int](c, AnySource, AnyTag); err == nil {
			return fmt.Errorf("duplicate message survived dedup")
		}
		return nil
	}, WithFaults(inj), WithRecvTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultsReorderKeepsSameSourceFIFO pins the non-overtaking guarantee:
// a reordered message may jump ahead of other senders' queued messages but
// never ahead of an earlier message from its own sender and communicator.
func TestFaultsReorderKeepsSameSourceFIFO(t *testing.T) {
	inj := newScriptedInjector(func(src, dst, tag int, seq uint64) SendFault {
		return SendFault{Reorder: src == 1} // every message from rank 1 jumps the queue
	})
	err := Run(3, func(c *Comm) error {
		const n = 8
		switch c.Rank() {
		case 1, 2:
			if err := c.Barrier(); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				Send(c, 0, 7, []int{c.Rank()*1000 + i})
			}
			return nil
		default:
			if err := c.Barrier(); err != nil {
				return err
			}
			last := map[int]int{1: -1, 2: -1}
			for i := 0; i < 2*n; i++ {
				got, src, err := Recv[int](c, AnySource, 7)
				if err != nil {
					return err
				}
				v := got[0] - src*1000
				if v <= last[src] {
					return fmt.Errorf("source %d overtaken: saw %d after %d", src, v, last[src])
				}
				last[src] = v
			}
			return nil
		}
	}, WithFaults(inj), WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutFaultyReorderPlacement drives the mailbox directly: the reordered
// message lands ahead of other sources but behind its own source's queue.
func TestPutFaultyReorderPlacement(t *testing.T) {
	mk := func(wsrc int, seq uint64) message {
		return message{src: wsrc, tag: 1, ctx: 0, wsrc: wsrc, seq: seq, payload: []int{int(seq)}}
	}
	box := &mailbox{}
	box.putFaulty(mk(2, 1), false)
	box.putFaulty(mk(1, 1), false)
	box.putFaulty(mk(3, 1), false)
	// Reordered message from source 2 jumps sources 1 and 3 but stays
	// behind source 2's earlier message.
	box.putFaulty(mk(2, 2), true)
	wantSrc := []int{2, 2, 1, 3}
	wantSeq := []uint64{1, 2, 1, 1}
	if len(box.pending) != 4 {
		t.Fatalf("pending = %d messages, want 4", len(box.pending))
	}
	for i := range wantSrc {
		if box.pending[i].wsrc != wantSrc[i] || box.pending[i].seq != wantSeq[i] {
			t.Errorf("pending[%d] = src %d seq %d, want src %d seq %d",
				i, box.pending[i].wsrc, box.pending[i].seq, wantSrc[i], wantSeq[i])
		}
	}
	// With no same-source message pending, a reordered message goes first.
	box2 := &mailbox{}
	box2.putFaulty(mk(1, 1), false)
	box2.putFaulty(mk(3, 1), false)
	box2.putFaulty(mk(2, 1), true)
	if box2.pending[0].wsrc != 2 {
		t.Errorf("reordered head = src %d, want 2", box2.pending[0].wsrc)
	}
	// Duplicate seqs are dropped regardless of reorder.
	box2.putFaulty(mk(2, 1), false)
	box2.putFaulty(mk(2, 1), true)
	if len(box2.pending) != 3 {
		t.Errorf("duplicates not dropped: %d pending", len(box2.pending))
	}
}

// TestFaultsCrashSurfacesAsRunError pins fail-stop semantics: the crashing
// rank's panic is recovered into the Run error, deterministically.
func TestFaultsCrashSurfacesAsRunError(t *testing.T) {
	inj := newScriptedInjector(func(src, dst, tag int, seq uint64) SendFault {
		if src == 0 && seq == 2 {
			return SendFault{Crash: "faultline: injected crash (test)"}
		}
		return SendFault{}
	})
	err := Run(2, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				Send(c, 1, 7, []int{i})
			} else {
				if _, _, err := Recv[int](c, 0, 7); err != nil {
					return err
				}
			}
		}
		return nil
	}, WithFaults(inj), WithRecvTimeout(300*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("want injected-crash error, got %v", err)
	}
	if want := "mpi: rank 0: faultline: injected crash (test)"; err.Error() != want {
		t.Errorf("crash error = %q, want the one line %q", err, want)
	}
	var crash InjectedCrash
	if !errors.As(err, &crash) {
		t.Errorf("crash error %v does not wrap an InjectedCrash", err)
	}
}

// TestRunPanicKeepsItsStack: a panic that no fault injected is a bug, and
// Run's error carries the stack that finds it.
func TestRunPanicKeepsItsStack(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 1 panicked: boom\n") || !strings.Contains(err.Error(), "goroutine ") {
		t.Errorf("panic error = %v, want the panic and its stack", err)
	}
}

// TestFaultsCollectivesBitIdentical is the in-package metamorphic check: a
// world where messages are duplicated, reordered, delayed, and stalled must
// produce element-identical collective results to a clean world.
func TestFaultsCollectivesBitIdentical(t *testing.T) {
	const p = 4
	run := func(opts ...Option) ([][]float64, error) {
		out := make([][]float64, p)
		err := Run(p, func(c *Comm) error {
			in := make([]float64, 257)
			for i := range in {
				in[i] = float64(c.Rank()*1000+i) * 0.375
			}
			sum := make([]float64, len(in))
			if err := Allreduce(c, in, sum, OpSum); err != nil {
				return err
			}
			bc := make([]float64, 33)
			if c.Rank() == 1 {
				copy(bc, sum[:33])
			}
			if err := Bcast(c, bc, 1); err != nil {
				return err
			}
			ag, err := Allgather(c, []float64{sum[0], float64(c.Rank())})
			if err != nil {
				return err
			}
			sub, err := c.Split(c.Rank()%2, c.Rank())
			if err != nil {
				return err
			}
			sub2 := make([]float64, 9)
			if err := Allreduce(sub, sum[:9], sub2, OpMax); err != nil {
				return err
			}
			res := append(append(append([]float64{}, sum...), bc...), ag...)
			out[c.Rank()] = append(res, sub2...)
			return nil
		}, opts...)
		return out, err
	}

	clean, err := run()
	if err != nil {
		t.Fatal(err)
	}
	inj := newScriptedInjector(func(src, dst, tag int, seq uint64) SendFault {
		f := SendFault{}
		switch seq % 4 {
		case 0:
			f.Dup = true
		case 1:
			f.Reorder = true
		case 2:
			if src == 2 {
				f.Delay = time.Millisecond
			}
		}
		return f
	})
	faulty, err := run(WithFaults(inj), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean {
		if len(clean[r]) != len(faulty[r]) {
			t.Fatalf("rank %d: length %d vs %d", r, len(clean[r]), len(faulty[r]))
		}
		for i := range clean[r] {
			if clean[r][i] != faulty[r][i] {
				t.Fatalf("rank %d elem %d: clean %v faulty %v", r, i, clean[r][i], faulty[r][i])
			}
		}
	}
}
