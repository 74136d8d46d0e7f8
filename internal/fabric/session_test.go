package fabric

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countConn counts Writes and, when started is set, announces each one
// before it reaches the wire.
type countConn struct {
	Conn
	writes  atomic.Int64
	started chan struct{}
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.started != nil {
		c.started <- struct{}{}
	}
	return c.Conn.Write(b)
}

// sessionPair handshakes one loopback connection and returns both ends;
// wrap (optional) decorates the dialer's conn before the Hello.
func sessionPair(t *testing.T, wrap func(Conn) Conn) (dialer, acceptor *Session) {
	t.Helper()
	lis, err := Listen("loopback", t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lis.Close() }()
	accepted := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err == nil {
			acceptor, _, err = AcceptHello(conn, nil)
		}
		if err == nil {
			err = acceptor.SendWelcome(Welcome{})
		}
		accepted <- err
	}()
	conn, err := Dial("loopback", t.Name())
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	dialer, _, err = DialHello(conn, Hello{Role: RoleWriter}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = dialer.Close()
		_ = acceptor.Close()
	})
	return dialer, acceptor
}

var errEnough = errors.New("test: saw every frame")

// Many goroutines share one session: the peer must see only whole,
// CRC-valid frames (Run fails on anything else) and the conn exactly one
// Write per frame — cmd/bench's countingConn and the layer ledger count
// frames that way.
func TestSessionConcurrentWritersWholeFrames(t *testing.T) {
	const writers, each = 8, 50
	cc := &countConn{}
	d, a := sessionPair(t, func(c Conn) Conn { cc.Conn = c; return cc })
	handshakeWrites := cc.writes.Load()

	sealed := AppendFrame(nil, FrameData, 99, bytes.Repeat([]byte{0xEE}, 300))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := bytes.Repeat([]byte{byte(w)}, 1+(w*each+i)%700)
				var err error
				switch i % 3 {
				case 0:
					err = d.Send(FrameEnvelope, uint32(w), payload)
				case 1:
					err = d.SendFunc(FrameEnvelope, uint32(w), func(dst []byte) []byte {
						return append(dst, payload...)
					})
				case 2:
					err = d.SendSealed(sealed)
				}
				if err != nil {
					t.Errorf("writer %d frame %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}

	seen := 0
	err := a.Run(0, func(typ FrameType, seq uint32, payload []byte) error {
		fill := byte(seq)
		if typ == FrameData {
			fill = 0xEE
		}
		if len(payload) == 0 || !bytes.Equal(payload, bytes.Repeat([]byte{fill}, len(payload))) {
			t.Errorf("frame %s seq %d: payload of %d bytes is not one writer's", typ, seq, len(payload))
		}
		if seen++; seen == writers*each {
			return errEnough
		}
		return nil
	})
	if err != errEnough {
		t.Fatalf("peer saw %d of %d frames, then: %v", seen, writers*each, err)
	}
	wg.Wait()
	if got := cc.writes.Load() - handshakeWrites; got != writers*each {
		t.Fatalf("%d conn writes for %d frames, want one each", got, writers*each)
	}
}

// A peer that never reads: the write gives up at the deadline and takes the
// session with it — and meanwhile the pump keeps dispatching, because the
// handler runs without the write lock (the PR 3 deadlock was a recv pump
// waiting for the lock a stalled writer held).
func TestSessionStalledWriteTimesOutPumpStaysFree(t *testing.T) {
	cc := &countConn{}
	d, a := sessionPair(t, func(c Conn) Conn { cc.Conn = c; return cc })
	d.writeTimeout = 200 * time.Millisecond
	cc.started = make(chan struct{}, 1)

	inHandler, letGo := make(chan FrameType, 1), make(chan struct{})
	pumped := make(chan error, 1)
	go func() {
		pumped <- d.Run(0, func(typ FrameType, _ uint32, _ []byte) error {
			inHandler <- typ
			<-letGo
			return nil
		})
	}()

	// Nobody runs a's pump, so on the synchronous pipe this write stalls
	// holding d's write lock.
	start := time.Now()
	sent := make(chan error, 1)
	go func() { sent <- d.Send(FrameData, 1, make([]byte, 1<<16)) }()
	<-cc.started

	// The peer can still talk to us, and our handler still gets the frame.
	if err := a.Send(FrameRelease, 7, nil); err != nil {
		t.Fatalf("peer write while ours is stalled: %v", err)
	}
	select {
	case typ := <-inHandler:
		if typ != FrameRelease {
			t.Fatalf("handler got %s", typ)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pump stuck behind the stalled write")
	}

	select {
	case err := <-sent:
		var ne net.Error
		if !errors.Is(err, os.ErrDeadlineExceeded) && !(errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("stalled write returned %v, want a timeout", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("stalled write took %s to give up on a %s deadline", elapsed, d.writeTimeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled write never returned")
	}
	if err := d.Send(FrameEOS, 0, nil); err != ErrSessionClosed {
		t.Fatalf("send after the timed-out write: %v, want ErrSessionClosed", err)
	}
	close(letGo)
	if err := <-pumped; err == nil {
		t.Fatal("pump outlived its closed session")
	}
}

// nullConn accepts every write and allocates nothing doing so.
type nullConn struct{ Conn }

func (nullConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nullConn) SetWriteDeadline(time.Time) error { return nil }
func (nullConn) Close() error                     { return nil }

// The session adds no per-frame allocation, closure or copy of its own on
// any write path — what keeps mallocs_per_step where the hand-rolled
// writers had it.
func TestSessionWritePathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := newSession(nullConn{}, &Stats{})
	payload := bytes.Repeat([]byte("x"), 4096)
	sealed := AppendFrame(nil, FrameData, 1, payload)
	for name, send := range map[string]func() error{
		"Send": func() error { return s.Send(FrameEnvelope, 1, payload) },
		"SendFunc": func() error {
			return s.SendFunc(FrameEnvelope, 1, func(dst []byte) []byte { return append(dst, payload...) })
		},
		"SendData":   func() error { return s.SendData(1, 3, payload) },
		"SendSealed": func() error { return s.SendSealed(sealed) },
	} {
		if err := send(); err != nil { // grows the scratch once
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = send() }); n != 0 {
			t.Errorf("%s: %.0f allocs per frame, want 0", name, n)
		}
	}
}

// Heartbeats are the session's own business: a probe is echoed, payload
// intact, by a session whose owner's handler never hears of it.
func TestSessionAnswersHeartbeats(t *testing.T) {
	d, a := sessionPair(t, nil)
	go func() {
		_ = a.Run(0, func(typ FrameType, _ uint32, _ []byte) error {
			t.Errorf("owner's handler was handed a %s frame", typ)
			return nil
		})
	}()
	probe := []byte("12345678")
	if err := d.Send(FrameHeartbeat, 42, probe); err != nil {
		t.Fatal(err)
	}
	typ, seq, payload, err := d.fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameHeartbeatAck || seq != 42 || !bytes.Equal(payload, probe) {
		t.Fatalf("got %s seq %d payload %q, want the probe echoed as an ack", typ, seq, payload)
	}
}
