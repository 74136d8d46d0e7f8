package live

import (
	"bytes"
	"fmt"
	"runtime"
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
	h := newHub(maxPendingCommands)
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
// publish/take loop recycles FrameRef buffers instead of allocating, and so
// does waking a consumer parked in Next — every publish finds one parked,
// the way a wire pusher waits between frames. The threshold tolerates the
// stray allocation a mid-run GC can cause by emptying the sync.Pool, but
// catches any per-op allocation coming back (a channel made per epoch to
// wake the parked consumer costs one).
func TestPublishFanoutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	h := NewHub()
	defer h.Close()
	sub := h.SubscribeRef()
	defer sub.Cancel()
	parked := h.SubscribeRef()
	woke := make(chan struct{})
	go func() {
		for ref := parked.Next(); ref != nil; ref = parked.Next() {
			ref.Release()
			woke <- struct{}{}
		}
		close(woke)
	}()
	defer func() {
		parked.Cancel()
		for range woke {
		}
	}()

	png := pseudoPNG(1, 4096)
	publishAndDrain := func() {
		waitParked(h)
		h.Publish(Frame{Step: 1, Width: 64, Height: 64, PNG: png})
		if ref := sub.Take(); ref != nil {
			ref.Release()
		}
		<-woke
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

// waitParked spins until a consumer is parked on h's waiting list.
func waitParked(h *Hub) {
	for {
		h.pubMu.Lock()
		n := len(h.waiting)
		h.pubMu.Unlock()
		if n > 0 {
			return
		}
		runtime.Gosched()
	}
}

// TestReadyFiresOncePerEpoch pins the edge-triggered latch: once ready has
// fired for an epoch, arming it again without a take does not fire until
// the next publish. A level-triggered latch, firing for as long as an
// untaken frame exists, fails this — and spins a serve pusher whose
// credits are spent.
func TestReadyFiresOncePerEpoch(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.SubscribeRef()
	defer sub.Cancel()
	fires := func(rdy <-chan struct{}, within time.Duration) bool {
		select {
		case <-rdy:
			return true
		case <-time.After(within):
			return false
		}
	}

	rdy := sub.ready() // nothing published: parks
	h.Publish(Frame{Step: 0, PNG: pseudoPNG(0, 8)})
	if !fires(rdy, 10*time.Second) {
		t.Fatal("the waker did not fire a parked latch")
	}
	if fires(sub.ready(), 50*time.Millisecond) {
		t.Fatal("latch fired twice for epoch 1 without a take (woken by the waker)")
	}
	h.Publish(Frame{Step: 1, PNG: pseudoPNG(1, 8)})
	if !fires(rdy, 10*time.Second) {
		t.Fatal("latch did not fire for the next publish")
	}
	if fires(sub.ready(), 50*time.Millisecond) {
		t.Fatal("latch fired twice for epoch 2 without a take")
	}
	ref := sub.take()
	if ref == nil || ref.Step() != 1 {
		t.Fatalf("take after two publishes = %v, want step 1", ref)
	}
	ref.Release()
	if sub.take() != nil {
		t.Fatal("took the same epoch twice")
	}

	// A latch that fires at once (an untaken frame when armed) is
	// edge-triggered too.
	late := h.SubscribeRef()
	defer late.Cancel()
	if !fires(late.ready(), 10*time.Second) {
		t.Fatal("a late joiner's latch did not fire for the snapshot")
	}
	if fires(late.ready(), 50*time.Millisecond) {
		t.Fatal("a late joiner's latch fired twice for one epoch without a take")
	}
}

// TestPoolSafetyUnderPressure drains 1,000 subscriptions against a publisher
// running flat out until every one of them has checked frames from at least
// 200 publishes. Every frame a subscriber holds must still carry its own
// step's bytes when checked, so no FrameRef returns to frameRefPool — to be
// refilled in place by a later publish — while someone still holds it. Run
// it under -race.
func TestPoolSafetyUnderPressure(t *testing.T) {
	const subs, steps, checks, size = 1000, 200, 5, 64
	h := NewHub()
	defer h.Close()

	errs := make(chan error, subs)
	var wg sync.WaitGroup
	wg.Add(subs)
	for i := 0; i < subs; i++ {
		sub := h.SubscribeRef()
		go func(i int) {
			defer wg.Done()
			defer sub.Cancel()
			last := -1
			for n := 0; n < checks || last < steps-1; n++ {
				ref := sub.Next()
				if ref == nil {
					errs <- fmt.Errorf("subscriber %d: closed after step %d", i, last)
					return
				}
				s := ref.Step()
				ok := s > last && bytes.Equal(ref.PNG(), pseudoPNG(s, size))
				ref.Release()
				if !ok {
					errs <- fmt.Errorf("subscriber %d: frame for step %d (after %d) is not its own bytes", i, s, last)
					return
				}
				last = s
			}
		}(i)
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	for s, done := 0, false; !done; s++ {
		h.Publish(Frame{Step: s, Width: 8, Height: 8, PNG: pseudoPNG(s, size)})
		if s >= steps-1 {
			select {
			case <-drained:
				done = true
			default:
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := h.Viewers(); n != 0 {
		t.Fatalf("viewers=%d after every subscriber canceled", n)
	}
}

func TestCommandTableBounded(t *testing.T) {
	h := newHub(8)
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

// Take is take for the external tests.
func (s *Subscription) Take() *FrameRef { return s.take() }

// LatestRef returns a retained reference to the most recent frame, or nil
// if none was published. The caller must Release it.
func (h *Hub) LatestRef() *FrameRef {
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	if h.latest != nil {
		h.latest.Retain()
	}
	return h.latest
}

// PendingCommands reports the size of the coalesced steering table.
func (h *Hub) PendingCommands() int {
	h.steerMu.Lock()
	defer h.steerMu.Unlock()
	return len(h.steer)
}
