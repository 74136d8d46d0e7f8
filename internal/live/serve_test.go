package live

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gosensei/internal/fabric"
)

func TestFramePayloadRoundTrip(t *testing.T) {
	f := Frame{Step: 9, Width: 64, Height: 32, PNG: []byte("not really a png")}
	var got Frame
	if err := decodeFramePayload(&got, appendFramePayload(nil, f)); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Step != f.Step || got.Width != f.Width || got.Height != f.Height || !bytes.Equal(got.PNG, f.PNG) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := decodeFramePayload(&got, []byte("short")); err == nil {
		t.Fatalf("short payload decoded")
	}
}

// A viewer in another "process" (over the loopback wire) receives published
// frames and steers the simulation — the live-connection loop end to end.
func TestServeViewerOverWire(t *testing.T) {
	hub := NewHub()
	lis, err := fabric.Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(lis, hub)
	defer func() { _ = srv.Close() }()

	v, err := DialViewer("loopback", t.Name())
	if err != nil {
		t.Fatalf("dial viewer: %v", err)
	}
	defer func() { _ = v.Close() }()

	// The subscription races the publish; wait for attachment.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Viewers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("viewer never attached")
		}
		time.Sleep(time.Millisecond)
	}
	want := Frame{Step: 3, Width: 8, Height: 4, PNG: []byte("frame bytes")}
	hub.Publish(want)
	got, ok := v.Next(5 * time.Second)
	if !ok {
		t.Fatalf("no frame arrived")
	}
	if got.Step != want.Step || !bytes.Equal(got.PNG, want.PNG) {
		t.Fatalf("got frame %+v", got)
	}

	if err := v.Steer("jet-amplitude", 1.5); err != nil {
		t.Fatalf("steer: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		cmds := hub.DrainCommands()
		if len(cmds) == 1 {
			if cmds[0].Name != "jet-amplitude" || cmds[0].Value != 1.5 {
				t.Fatalf("got command %+v", cmds[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("steering command never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// Closing the viewer detaches it from the hub.
	if err := v.Close(); err != nil {
		t.Fatalf("close viewer: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for hub.Viewers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("viewer never detached")
		}
		time.Sleep(time.Millisecond)
	}
}

// A viewer that attaches after frames were published must receive the
// current frame immediately from the snapshot cache — the seed hub made a
// wire viewer wait for the next publish.
func TestLateWireViewerGetsSnapshot(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	lis, err := fabric.Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(lis, hub)
	defer func() { _ = srv.Close() }()

	hub.Publish(Frame{Step: 11, Width: 3, Height: 1, PNG: []byte("snapshot")})
	v, err := DialViewer("loopback", t.Name())
	if err != nil {
		t.Fatalf("dial viewer: %v", err)
	}
	defer func() { _ = v.Close() }()
	f, ok := v.Next(5 * time.Second)
	if !ok || f.Step != 11 || !bytes.Equal(f.PNG, []byte("snapshot")) {
		t.Fatalf("snapshot frame=%+v ok=%v", f, ok)
	}
}

// Regression for the blocking recv pump (the seed's `v.frames <- f`): an
// application that never reads frames must not wedge the pump — the wire
// keeps draining, credits keep flowing, and when the application finally
// looks it sees the newest frame, not a 16-deep backlog's head.
func TestViewerRecvPumpNewestWins(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	lis, err := fabric.Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(lis, hub)
	defer func() { _ = srv.Close() }()

	v, err := DialViewer("loopback", t.Name())
	if err != nil {
		t.Fatalf("dial viewer: %v", err)
	}
	defer func() { _ = v.Close() }()

	// Publish until the pump has taken well past the seed's 16-frame
	// channel capacity off the wire, without the application reading once.
	deadline := time.Now().Add(10 * time.Second)
	step := 0
	for v.recvd.Load() < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("recv pump wedged: only %d frames received", v.recvd.Load())
		}
		hub.Publish(Frame{Step: step, PNG: []byte{byte(step)}})
		step++
		time.Sleep(200 * time.Microsecond)
	}

	// Now the application reads: it must converge on the newest frame.
	final := Frame{Step: 1 << 20, PNG: []byte("newest")}
	hub.Publish(final)
	for {
		f, ok := v.Next(5 * time.Second)
		if !ok {
			t.Fatalf("viewer closed before the newest frame arrived")
		}
		if f.Step == final.Step {
			if !bytes.Equal(f.PNG, final.PNG) {
				t.Fatalf("newest frame bytes mangled: %q", f.PNG)
			}
			break
		}
	}
}

// A viewer that withholds credit releases (a stalled TCP peer) is skipped:
// the server sends at most its credit budget, the publish path never
// stalls, and when credits return the viewer resumes at the newest frame —
// not at the head of a backlog.
func TestSlowViewerCreditSkipToNewest(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	lis, err := fabric.Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	const credits = 2
	srv := ServeWith(lis, hub, ServeOptions{Credits: credits})
	defer func() { _ = srv.Close() }()

	// A raw protocol-level viewer that reads frames but never releases.
	conn, err := fabric.Dial("loopback", t.Name())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sess, w, err := fabric.DialHello(conn, fabric.Hello{Role: fabric.RoleViewer}, nil)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer func() { _ = sess.Close() }()
	if w.Credits != credits {
		t.Fatalf("granted credits=%d, want %d", w.Credits, credits)
	}

	// Publish a burst; the publish path must complete instantly regardless
	// of the stalled viewer.
	const steps = 50
	start := time.Now()
	for i := 0; i < steps; i++ {
		hub.Publish(Frame{Step: i, PNG: []byte{byte(i)}})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("publish burst stalled behind a credit-starved viewer: %s", elapsed)
	}

	// The server sends at most `credits` frames before the first release:
	// pump until the wire has been silent for half a second.
	got := 0
	_ = sess.Run(500*time.Millisecond, func(typ fabric.FrameType, _ uint32, payload []byte) error {
		if typ != fabric.FrameData {
			return nil
		}
		var f Frame
		if err := decodeFramePayload(&f, payload); err != nil {
			t.Fatalf("decode: %v", err)
		}
		got++
		if got > credits {
			t.Fatalf("stalled viewer got frame %d beyond its %d credits (step %d)", got, credits, f.Step)
		}
		return nil
	})
	if got == 0 {
		t.Fatal("stalled viewer got no frames at all")
	}

	// Returning the credits resumes delivery at the newest frame: after the
	// release (and a fresh publish) the viewer sees only the newest frames —
	// never the steps it skipped while stalled.
	released := got
	if err := sess.Send(fabric.FrameRelease, uint32(released), nil); err != nil {
		t.Fatalf("release: %v", err)
	}
	const finalStep = 1 << 20
	hub.Publish(Frame{Step: finalStep, PNG: []byte("final")})
	errFinal := errors.New("saw the final frame")
	err = sess.Run(5*time.Second, func(typ fabric.FrameType, _ uint32, payload []byte) error {
		if typ != fabric.FrameData {
			return nil
		}
		var f Frame
		if err := decodeFramePayload(&f, payload); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if f.Step != steps-1 && f.Step != finalStep {
			t.Fatalf("resumed at skipped step %d, want %d or %d (skip-to-newest)", f.Step, steps-1, finalStep)
		}
		released++
		if err := sess.Send(fabric.FrameRelease, uint32(released), nil); err != nil {
			t.Fatalf("release: %v", err)
		}
		if f.Step == finalStep {
			return errFinal
		}
		return nil
	})
	if err != errFinal {
		t.Fatalf("no frame after credit release: %v", err)
	}
}

// wireViewer serves a fresh hub on a loopback listener named after the test
// and attaches one viewer to it; both close when the test ends.
func wireViewer(t *testing.T) (*Hub, *Viewer) {
	t.Helper()
	hub := NewHub()
	t.Cleanup(hub.Close)
	lis, err := fabric.Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(lis, hub)
	t.Cleanup(func() { _ = srv.Close() })
	v, err := DialViewer("loopback", t.Name())
	if err != nil {
		t.Fatalf("dial viewer: %v", err)
	}
	t.Cleanup(func() { _ = v.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for hub.Viewers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("viewer never attached")
		}
		time.Sleep(time.Millisecond)
	}
	return hub, v
}

// A frame Next returned is the consumer's until its next Next: the receive
// pump recycles frame buffers, and must never fill the one the consumer
// holds, however many frames arrive meanwhile. Under -race a pump writing
// the held buffer is also reported as a race with the reads below.
func TestViewerFrameStableUntilNext(t *testing.T) {
	hub, v := wireViewer(t)
	const size = 4 << 10
	hub.Publish(Frame{Step: 0, Width: 8, Height: 8, PNG: pseudoPNG(0, size)})
	held, ok := v.Next(5 * time.Second)
	if !ok || held.Step != 0 {
		t.Fatalf("first frame: step %d ok=%v", held.Step, ok)
	}
	want := append([]byte(nil), held.PNG...)

	// Push distinct frames one at a time until the pump has taken ten more
	// off the wire, each decoded into a recycled buffer while the consumer
	// holds step 0.
	const last = 10
	base := v.recvd.Load()
	for k := 1; k <= last; k++ {
		hub.Publish(Frame{Step: k, Width: 8, Height: 8, PNG: pseudoPNG(k, size)})
		deadline := time.Now().Add(5 * time.Second)
		for v.recvd.Load() < base+uint64(k) {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d never reached the pump", k)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if !bytes.Equal(held.PNG, want) {
		t.Fatalf("held frame changed under the consumer after %d more frames", last)
	}

	f, ok := v.Next(5 * time.Second)
	if !ok || f.Step != last || !bytes.Equal(f.PNG, pseudoPNG(last, size)) {
		t.Fatalf("next frame: step %d ok=%v, want the newest, step %d", f.Step, ok, last)
	}
}

// A viewer in lockstep with the publisher allocates nothing per frame: each
// frame lands in the buffer the consumer gave back with its previous Next.
// Copying each 64 KiB frame afresh would allocate 50 x 64 KiB here.
func TestViewerReceiveAllocatesNoFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	hub, v := wireViewer(t)
	const size, frames = 64 << 10, 50
	bodies := [][]byte{pseudoPNG(1, size), pseudoPNG(2, size)}
	step := 0
	lockstep := func() {
		hub.Publish(Frame{Step: step, Width: 64, Height: 64, PNG: bodies[step%2]})
		f, ok := v.Next(5 * time.Second)
		if !ok || f.Step != step || !bytes.Equal(f.PNG, bodies[step%2]) {
			t.Fatalf("lockstep frame %d: got step %d ok=%v", step, f.Step, ok)
		}
		step++
	}

	// A collection mid-measurement would empty the publish side's pool; hold
	// it off, and warm up so every buffer has reached its working size.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 10; i++ {
		lockstep()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		lockstep()
	}
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(frames*size/16); grew >= limit {
		t.Fatalf("%d lockstep %d-byte frames allocated %d bytes, want < %d", frames, size, grew, limit)
	}
}
