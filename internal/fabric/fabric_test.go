package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// --- framing ---

// Frames round-trip at every payload size around the read-ahead, however
// the stream hands out its bytes: each size rides between small frames and
// is read through a whole-buffer reader and through two that return short
// reads.
func TestFrameRoundTrip(t *testing.T) {
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"bytes", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	type frame struct {
		typ     FrameType
		seq     uint32
		payload []byte
	}
	for _, size := range []int{0, 1, readAhead - frameHeaderSize - 1, readAhead - frameHeaderSize,
		4 << 10, 64<<10 + 16, 1440 << 10} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*131 + i>>8)
		}
		frames := []frame{
			{FrameAdvance, 1, []byte("step metadata")},
			{FrameData, 2, payload},
			{FrameRelease, 3, nil},
			{FrameSteer, 4, []byte("the staged container bytes")},
		}
		var stream []byte
		for _, f := range frames {
			stream = AppendFrame(stream, f.typ, f.seq, f.payload)
		}
		for _, rd := range readers {
			t.Run(fmt.Sprintf("%d/%s", size, rd.name), func(t *testing.T) {
				fr := NewFrameReader(rd.wrap(bytes.NewReader(stream)), 0)
				for _, want := range frames {
					typ, seq, got, err := fr.Next()
					if err != nil {
						t.Fatalf("frame seq %d: %v", want.seq, err)
					}
					if typ != want.typ || seq != want.seq || !bytes.Equal(got, want.payload) {
						t.Fatalf("got %s seq %d with %d bytes, want %s seq %d with %d", typ, seq, len(got), want.typ, want.seq, len(want.payload))
					}
				}
				if _, _, _, err := fr.Next(); err != io.EOF {
					t.Fatalf("want clean EOF at frame boundary, got %v", err)
				}
			})
		}
	}
}

// Every session owns a FrameReader, so its read-ahead is paid per
// connection: a hundred readers stay far below what a payload-sized
// read-ahead (64 KiB each) would cost.
func TestFrameReaderFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 100
	readers := make([]*FrameReader, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range readers {
		readers[i] = NewFrameReader(bytes.NewReader(nil), 0)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(readers)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*8<<10); grew >= limit {
		t.Fatalf("%d frame readers allocated %d bytes, want < %d", n, grew, limit)
	}
}

func TestFrameReaderReusesBuffer(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, FrameData, 1, bytes.Repeat([]byte("a"), 1000))
	stream = AppendFrame(stream, FrameData, 2, bytes.Repeat([]byte("b"), 500))
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	_, _, p1, err := fr.Next()
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	first := &p1[0]
	_, _, p2, err := fr.Next()
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if &p2[0] != first {
		t.Fatalf("payload buffer not reused across frames")
	}
}

func TestFrameDecodeCorruption(t *testing.T) {
	base := AppendFrame(nil, FrameData, 7, []byte("payload bytes"))

	t.Run("flipped payload bit", func(t *testing.T) {
		f := append([]byte(nil), base...)
		f[frameHeaderSize+3] ^= 0x10
		_, _, _, err := NewFrameReader(bytes.NewReader(f), 0).Next()
		if !errors.Is(err, ErrFrameChecksum) {
			t.Fatalf("want checksum error, got %v", err)
		}
	})
	t.Run("flipped type bit", func(t *testing.T) {
		f := append([]byte(nil), base...)
		f[4] = byte(FrameEOS)
		_, _, _, err := NewFrameReader(bytes.NewReader(f), 0).Next()
		if !errors.Is(err, ErrFrameChecksum) {
			t.Fatalf("want checksum error, got %v", err)
		}
	})
	t.Run("invalid type", func(t *testing.T) {
		f := append([]byte(nil), base...)
		f[4] = 0xEE
		_, _, _, err := NewFrameReader(bytes.NewReader(f), 0).Next()
		if !errors.Is(err, ErrFrameType) {
			t.Fatalf("want type error, got %v", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		f := append([]byte(nil), base...)
		f[0], f[1], f[2], f[3] = 0xFF, 0xFF, 0xFF, 0x7F
		_, _, _, err := NewFrameReader(bytes.NewReader(f), 1<<16).Next()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want too-large error, got %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		_, _, _, err := NewFrameReader(bytes.NewReader(base[:5]), 0).Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("want unexpected EOF, got %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, _, err := NewFrameReader(bytes.NewReader(base[:len(base)-4]), 0).Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("want unexpected EOF, got %v", err)
		}
	})
}

// A truncated stream claiming a huge payload must not allocate the claimed
// size: the reader grows its buffer only as bytes arrive.
func TestFrameDecodeTruncationDoesNotOverAllocate(t *testing.T) {
	f := AppendFrame(nil, FrameData, 1, bytes.Repeat([]byte("x"), 64))
	f[0], f[1], f[2], f[3] = 0x00, 0x00, 0x00, 0x08 // claim 128 MiB
	fr := NewFrameReader(bytes.NewReader(f), MaxPayload)
	if _, _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want unexpected EOF, got %v", err)
	}
	if cap(fr.buf) > 2*growStep {
		t.Fatalf("reader allocated %d bytes for a truncated stream", cap(fr.buf))
	}
}

func TestSteerPayloadRoundTrip(t *testing.T) {
	p := AppendSteerPayload(nil, "iso-value", 0.75)
	name, value, err := DecodeSteerPayload(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if name != "iso-value" || value != 0.75 {
		t.Fatalf("got %q=%v", name, value)
	}
	if _, _, err := DecodeSteerPayload(p[:len(p)-1]); err == nil {
		t.Fatalf("truncated steer payload decoded")
	}
}

// --- loopback registry ---

func TestLoopbackDuplicateAndUnknown(t *testing.T) {
	lis, err := Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if _, err := Listen("loopback", t.Name()); err == nil {
		t.Fatalf("duplicate loopback name accepted")
	}
	if err := lis.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Name is free again after close — the endpoint-restart path.
	lis2, err := Listen("loopback", t.Name())
	if err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
	defer func() { _ = lis2.Close() }()
	if _, err := Dial("loopback", "no-such-endpoint"); err == nil {
		t.Fatalf("dial of unknown loopback name succeeded")
	}
}

// --- backoff ---

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a, b := NewBackoff(7), NewBackoff(7)
	for i := 0; i < 12; i++ {
		da, db := a.Delay(i), b.Delay(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < 0 || da > time.Duration(1.5*float64(time.Second)) {
			t.Fatalf("attempt %d: delay %v out of bounds", i, da)
		}
	}
	if NewBackoff(1).Delay(0) == NewBackoff(2).Delay(0) &&
		NewBackoff(1).Delay(1) == NewBackoff(2).Delay(1) &&
		NewBackoff(1).Delay(2) == NewBackoff(2).Delay(2) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// --- client <-> hub ---

// loopbackClient returns options for a deterministic in-process client
// (loopback arms no heartbeats) with a generous retry window.
func loopbackClient(addr string, rank, writers, readers, depth int) ClientOptions {
	return ClientOptions{
		Network: "loopback", Addr: addr,
		Rank: rank, Writers: writers, Readers: readers, Depth: depth,
		RetryWindow: 10 * time.Second,
	}
}

func startHub(t *testing.T, addr string, writers, readers, depth int) *Hub {
	t.Helper()
	lis, err := Listen("loopback", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return NewHub(lis, HubOptions{Writers: writers, Readers: readers, Depth: depth})
}

func TestClientHubStagingFanIn(t *testing.T) {
	addr := t.Name()
	hub := startHub(t, addr, 2, 1, 2)
	defer func() { _ = hub.Close() }()

	clients := []*Client{
		DialWriter(loopbackClient(addr, 0, 2, 1, 2)),
		DialWriter(loopbackClient(addr, 1, 2, 1, 2)),
	}
	for w, c := range clients {
		for step := 0; step < 3; step++ {
			payload := []byte(fmt.Sprintf("writer %d step %d", w, step))
			if err := c.Send(step, payload); err != nil {
				t.Fatalf("writer %d send step %d: %v", w, step, err)
			}
			if err := c.Advance(step); err != nil {
				t.Fatalf("writer %d advance step %d: %v", w, step, err)
			}
			// Consume so depth 2 never blocks the loop.
			d := <-hub.Deliveries(0)
			want := fmt.Sprintf("writer %d step %d", d.Writer, d.Step)
			if string(d.Payload) != want {
				t.Fatalf("delivery %q, want %q", d.Payload, want)
			}
			d.Release()
		}
	}
	for w, c := range clients {
		if err := c.SendEOS(); err != nil {
			t.Fatalf("writer %d eos: %v", w, err)
		}
	}
	eos := 0
	for eos < 2 {
		d := <-hub.Deliveries(0)
		if !d.EOS {
			t.Fatalf("unexpected non-EOS delivery from writer %d", d.Writer)
		}
		d.Release()
		eos++
	}
	for w, c := range clients {
		if err := c.Drain(5 * time.Second); err != nil {
			t.Fatalf("writer %d drain: %v", w, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("writer %d close: %v", w, err)
		}
	}
}

// With depth 1, a second Send must block until the endpoint releases the
// first delivery — the FlexPath backpressure contract on the wire.
func TestClientBackpressure(t *testing.T) {
	addr := t.Name()
	hub := startHub(t, addr, 1, 1, 1)
	defer func() { _ = hub.Close() }()
	c := DialWriter(loopbackClient(addr, 0, 1, 1, 1))
	defer func() { _ = c.Close() }()

	if err := c.Send(0, []byte("first")); err != nil {
		t.Fatalf("send 0: %v", err)
	}
	var secondDone atomic.Bool
	sent := make(chan error, 1)
	go func() {
		err := c.Send(1, []byte("second"))
		secondDone.Store(true)
		sent <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if secondDone.Load() {
		t.Fatalf("second send completed while queue depth was exhausted")
	}
	d := <-hub.Deliveries(0)
	d.Release()
	if err := <-sent; err != nil {
		t.Fatalf("second send: %v", err)
	}
	d = <-hub.Deliveries(0)
	if string(d.Payload) != "second" {
		t.Fatalf("delivery %q", d.Payload)
	}
	d.Release()
}

// Kill the endpoint with unreleased messages in flight, restart it at the
// same address, and verify the writer retransmits and the run completes —
// the endpoint-reconnect-mid-run property.
func TestClientRidesOutEndpointRestart(t *testing.T) {
	addr := t.Name()
	hub := startHub(t, addr, 1, 1, 2)
	c := DialWriter(loopbackClient(addr, 0, 1, 1, 2))
	defer func() { _ = c.Close() }()

	// Step 0 is delivered and released (consumed by the analysis).
	if err := c.Send(0, []byte("step 0")); err != nil {
		t.Fatalf("send 0: %v", err)
	}
	d := <-hub.Deliveries(0)
	d.Release()
	if err := c.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Step 1 is delivered but never executed; the endpoint dies holding it.
	if err := c.Send(1, []byte("step 1")); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	<-hub.Deliveries(0) // accepted, not released
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}

	// The restarted endpoint has fresh state; the writer must retransmit
	// the unreleased step and continue.
	hub2 := startHub(t, addr, 1, 1, 2)
	defer func() { _ = hub2.Close() }()
	d = <-hub2.Deliveries(0)
	if d.Step != 1 || string(d.Payload) != "step 1" {
		t.Fatalf("after restart got step %d payload %q", d.Step, d.Payload)
	}
	d.Release()
	if err := c.Send(2, []byte("step 2")); err != nil {
		t.Fatalf("send 2 after restart: %v", err)
	}
	d = <-hub2.Deliveries(0)
	if d.Step != 2 {
		t.Fatalf("step %d after restart, want 2", d.Step)
	}
	d.Release()
	if err := c.Drain(5 * time.Second); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if got := c.stats.Reconnects.Value(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if got := c.stats.Retransmits.Value(); got < 1 {
		t.Errorf("retransmits = %d, want >= 1", got)
	}
}

// Sends racing a reconnect must never jump ahead of the retransmits: a
// newer sequence on the wire before an older one makes the hub's
// cumulative dedup swallow the older retransmit without delivering it,
// and the step is lost forever (Drain times out). The race needs
// depth > pending at reconnect so a Send can grab a restored credit
// while the install loop is still retransmitting; iterate to vary the
// interleaving.
func TestSendDuringReconnectKeepsOrder(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		addr := fmt.Sprintf("%s-%d", t.Name(), iter)
		hub := startHub(t, addr, 1, 1, 4)
		c := DialWriter(loopbackClient(addr, 0, 1, 1, 4))

		// Two steps on the wire, delivered but never released: the endpoint
		// dies holding them, with two credits still free.
		for step := 0; step < 2; step++ {
			if err := c.Send(step, []byte(fmt.Sprintf("step %d", step))); err != nil {
				t.Fatalf("iter %d: send %d: %v", iter, step, err)
			}
		}
		if err := hub.Close(); err != nil {
			t.Fatalf("iter %d: hub close: %v", iter, err)
		}

		// Restart the endpoint and immediately send more steps, so the new
		// Sends race the install/retransmit of steps 0 and 1.
		hub2 := startHub(t, addr, 1, 1, 4)
		sendErr := make(chan error, 1)
		go func() {
			for step := 2; step < 6; step++ {
				if err := c.Send(step, []byte(fmt.Sprintf("step %d", step))); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()

		for want := 0; want < 6; want++ {
			select {
			case d := <-hub2.Deliveries(0):
				if d.Step != want {
					t.Fatalf("iter %d: delivery step %d, want %d (reordered across reconnect)", iter, d.Step, want)
				}
				d.Release()
			case <-time.After(5 * time.Second):
				t.Fatalf("iter %d: step %d never delivered (lost in reconnect)", iter, want)
			}
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("iter %d: concurrent send: %v", iter, err)
		}
		if err := c.Drain(5 * time.Second); err != nil {
			t.Fatalf("iter %d: drain: %v", iter, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		if err := hub2.Close(); err != nil {
			t.Fatalf("iter %d: hub2 close: %v", iter, err)
		}
	}
}

// A writer whose endpoint never comes back must fail Send once the retry
// window is exhausted, not hang forever.
func TestClientRetryWindowExhausted(t *testing.T) {
	c := DialWriter(ClientOptions{
		Network: "loopback", Addr: "never-listening",
		Rank: 0, Writers: 1, Readers: 1, Depth: 1,
		RetryWindow: 100 * time.Millisecond,
		backoff:     &Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	defer func() { _ = c.Close() }()
	done := make(chan error, 1)
	go func() { done <- c.Send(0, []byte("doomed")) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("send succeeded with no endpoint")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("send did not fail after the retry window expired")
	}
}

// Heartbeats over TCP: RTT samples accumulate and the mean is positive.
func TestHeartbeatRTTOverTCP(t *testing.T) {
	lis, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 1})
	defer func() { _ = hub.Close() }()
	c := DialWriter(ClientOptions{
		Network: "tcp", Addr: lis.Addr().String(),
		Rank: 0, Writers: 1, Readers: 1, Depth: 1,
		RetryWindow: 5 * time.Second,
		heartbeat:   5 * time.Millisecond,
	})
	defer func() { _ = c.Close() }()
	if err := c.Send(0, []byte("tcp step")); err != nil {
		t.Fatalf("send: %v", err)
	}
	d := <-hub.Deliveries(0)
	if string(d.Payload) != "tcp step" {
		t.Fatalf("delivery %q", d.Payload)
	}
	d.Release()
	deadline := time.Now().Add(5 * time.Second)
	for c.stats.Heartbeats.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d heartbeats completed", c.stats.Heartbeats.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.stats.MeanHeartbeatRTT() <= 0 {
		t.Fatalf("mean heartbeat RTT = %v", c.stats.MeanHeartbeatRTT())
	}
}

// clientGoroutines counts the goroutines running a method of c — the
// lifecycle loop, the recv pump, the heartbeat. A traceback prints the
// receiver as the method's first argument, so goroutines of other tests'
// clients, which Close does not wait for, are not counted.
func clientGoroutines(c *Client) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	recv := regexp.MustCompile(fmt.Sprintf(`fabric\.\(\*Client\)\.\w+\(%p\b`, c))
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if recv.MatchString(g) {
			n++
		}
	}
	return n
}

// Close ends the client's goroutines at once, the heartbeat included: it
// used to notice only at its next tick, up to the default 500 ms later, which
// is a goroutine (and its ticker) per closed writer for that long.
func TestCloseStopsHeartbeatPromptly(t *testing.T) {
	lis, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 1})
	defer func() { _ = hub.Close() }()
	c := DialWriter(ClientOptions{
		Network: "tcp", Addr: lis.Addr().String(),
		Rank: 0, Writers: 1, Readers: 1, Depth: 1,
		RetryWindow: 5 * time.Second,
	})
	if c.hbInterval != 500*time.Millisecond {
		t.Fatalf("default tcp heartbeat = %v, want 500ms", c.hbInterval)
	}
	if err := c.Send(0, []byte("step")); err != nil {
		t.Fatalf("send: %v", err)
	}
	d := <-hub.Deliveries(0)
	d.Release()
	if got := clientGoroutines(c); got < 3 {
		t.Fatalf("%d client goroutines while connected, want at least 3 (run, pump, heartbeat)", got)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for clientGoroutines(c) > 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d client goroutines 50ms after Close\n%s", clientGoroutines(c), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
