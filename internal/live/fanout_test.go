package live

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gosensei/internal/fabric"
)

// pseudoPNG builds a deterministic payload for step s — stand-in bytes for
// a rendered frame, varied enough that any aliasing or reuse bug shows up
// as a byte mismatch.
func pseudoPNG(s, size int) []byte {
	b := make([]byte, size)
	x := uint32(s)*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}

// TestSubscribeChurnHammer attaches and detaches hundreds of viewers while
// a publisher runs flat out.
// Run under -race this is the registry's integrity check: no deadlock, no
// over-release panic, no lost cancel.
func TestSubscribeChurnHammer(t *testing.T) {
	h := newHub(4, maxPendingCommands)
	defer h.Close()

	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		png := pseudoPNG(0, 256)
		for step := 0; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Publish(Frame{Step: step, Width: 16, Height: 16, PNG: png})
		}
	}()

	const churners = 8
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(churners)
	for c := 0; c < churners; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sub := h.SubscribeRef()
				if ref := sub.Next(); ref != nil {
					if len(ref.PNG()) != 256 {
						t.Errorf("churn %d/%d: bad frame %d bytes", c, r, len(ref.PNG()))
					}
					ref.Release()
				}
				sub.Cancel()
				sub.Cancel() // idempotent
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	pub.Wait()

	if n := h.Viewers(); n != 0 {
		t.Fatalf("viewers=%d after full churn, want 0", n)
	}
	// The hub is still healthy: a fresh subscriber gets the newest frame.
	sub := h.SubscribeRef()
	defer sub.Cancel()
	ref := sub.Next()
	if ref == nil {
		t.Fatal("hub dead after churn")
	}
	ref.Release()
}

// TestFanoutDeterminism pins the acceptance criterion that the rebuilt
// fan-out delivers byte-identical frames: published bytes arrive unmodified
// on both the zero-copy in-process path and the wire path, for every frame,
// when the viewer keeps up (lockstep).
func TestFanoutDeterminism(t *testing.T) {
	h := NewHub()
	defer h.Close()
	lis, err := fabric.Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(lis, h)
	defer func() { _ = srv.Close() }()

	sub := h.SubscribeRef()
	defer sub.Cancel()
	v, err := DialViewer("loopback", t.Name())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = v.Close() }()

	const steps = 25
	for s := 0; s < steps; s++ {
		want := pseudoPNG(s, 100+97*s) // varied sizes cross pool size classes
		h.Publish(Frame{Step: s, Width: 10, Height: 10, PNG: want})

		ref := sub.Next()
		if ref == nil {
			t.Fatalf("step %d: in-process subscription closed", s)
		}
		if ref.Step() != s || !bytes.Equal(ref.PNG(), want) {
			t.Fatalf("step %d: in-process frame diverged (step %d, %d bytes)", s, ref.Step(), len(ref.PNG()))
		}
		ref.Release()

		f, ok := v.Next(10 * time.Second)
		if !ok {
			t.Fatalf("step %d: wire viewer closed", s)
		}
		if f.Step != s || f.Width != 10 || f.Height != 10 || !bytes.Equal(f.PNG, want) {
			t.Fatalf("step %d: wire frame diverged (step %d, %d bytes)", s, f.Step, len(f.PNG))
		}
	}
}

// TestPublishFanoutZeroAlloc guards the zero-copy pool: a steady-state
// publish/take loop recycles FrameRef buffers instead of allocating. The
// threshold tolerates the stray allocation a mid-run GC can cause by
// emptying the sync.Pool, but catches any per-op allocation coming back.
func TestPublishFanoutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	h := NewHub()
	defer h.Close()
	sub := h.SubscribeRef()
	defer sub.Cancel()

	png := pseudoPNG(1, 4096)
	publishAndDrain := func() {
		h.Publish(Frame{Step: 1, Width: 64, Height: 64, PNG: png})
		if ref := sub.Take(); ref != nil {
			ref.Release()
		}
	}
	for i := 0; i < 100; i++ { // warm the pool to the working size
		publishAndDrain()
	}
	if avg := testing.AllocsPerRun(500, publishAndDrain); avg > 0.5 {
		t.Fatalf("publish fan-out allocates %.2f allocs/op steady state, want ~0", avg)
	}
}

// TestManyViewersPublishUnstalled is the in-process half of the fan-out
// scale story: with several hundred attached viewers, a publish burst
// completes promptly (O(1) per publish), and every viewer still converges
// on the newest frame.
func TestManyViewersPublishUnstalled(t *testing.T) {
	h := NewHub()
	defer h.Close()
	const viewers = 300
	subs := make([]*Subscription, viewers)
	for i := range subs {
		subs[i] = h.SubscribeRef()
	}
	defer func() {
		for _, s := range subs {
			s.Cancel()
		}
	}()

	png := pseudoPNG(3, 1024)
	const steps = 200
	start := time.Now()
	for s := 0; s < steps; s++ {
		h.Publish(Frame{Step: s, PNG: png})
	}
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("publish burst across %d viewers took %s — publish is not O(1)", viewers, elapsed)
	}

	deadline := time.Now().Add(20 * time.Second)
	for i, sub := range subs {
		for {
			ref := sub.Take()
			if ref != nil && ref.Step() == steps-1 {
				ref.Release()
				break
			}
			ref.Release()
			if time.Now().After(deadline) {
				t.Fatalf("viewer %d never converged on the newest frame", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestCommandTableBounded(t *testing.T) {
	h := newHub(hubShards, 8)
	defer h.Close()
	// A flood of distinct names between drains must not grow memory
	// without bound: the table caps at its maxPending, evicting the
	// stalest entries.
	for i := 0; i < 10000; i++ {
		h.SendCommand(fmt.Sprintf("cmd-%d", i), float64(i))
	}
	if n := h.PendingCommands(); n != 8 {
		t.Fatalf("pending=%d, want cap 8", n)
	}
	cmds := h.DrainCommands()
	if len(cmds) != 8 {
		t.Fatalf("drained %d, want 8", len(cmds))
	}
	// The survivors are the newest 8, in update order.
	for i, c := range cmds {
		if want := fmt.Sprintf("cmd-%d", 9992+i); c.Name != want {
			t.Fatalf("cmds[%d]=%+v, want name %s", i, c, want)
		}
	}
}

// PendingCommands reports the size of the coalesced steering table.
func (h *Hub) PendingCommands() int {
	h.steerMu.Lock()
	defer h.steerMu.Unlock()
	return len(h.steer)
}
