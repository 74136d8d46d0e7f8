package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// chaosConn kills, truncates, or swallows writes at scripted cumulative
// write indices — a miniature of internal/faultline's conn wrapper, local to
// this package so the WrapConn seam is tested where it lives.
type chaosConn struct {
	Conn
	script *chaosScript
}

type chaosScript struct {
	mu     sync.Mutex
	writes int
	kill   map[int]bool // write index -> close the conn instead
	short  map[int]bool // write index -> half the bytes, then close
	eat    map[int]bool // write index -> pretend success, then close
}

func (s *chaosScript) wrap(rank int, c Conn) Conn { return &chaosConn{Conn: c, script: s} }

func (c *chaosConn) Write(b []byte) (int, error) {
	s := c.script
	s.mu.Lock()
	s.writes++
	w := s.writes
	kill, short, eat := s.kill[w], s.short[w], s.eat[w]
	s.mu.Unlock()
	switch {
	case kill:
		_ = c.Conn.Close()
		return 0, errors.New("chaos: killed")
	case short:
		n, _ := c.Conn.Write(b[:len(b)/2])
		_ = c.Conn.Close()
		return n, errors.New("chaos: short write")
	case eat:
		_ = c.Conn.Close()
		return len(b), nil
	default:
		return c.Conn.Write(b)
	}
}

// TestClientWrapConnRidesOutInjectedDeaths drives one writer through a
// scripted kill, a short write, and a swallowed-then-dead write; the hub
// must still see every step exactly once, in order, byte-identical — the
// retransmit/dedup path doing its job against injected failures.
func TestClientWrapConnRidesOutInjectedDeaths(t *testing.T) {
	addr := t.Name()
	hub := startHub(t, addr, 1, 1, 2)
	defer func() { _ = hub.Close() }()

	script := &chaosScript{
		// Write 1 is the first Hello. Data writes follow; each reconnect
		// inserts another Hello and retransmits, shifting later indices —
		// which is fine, the indices just name "the Nth frame this writer
		// ever put on the wire".
		kill:  map[int]bool{3: true},
		short: map[int]bool{6: true},
		eat:   map[int]bool{9: true},
	}
	o := loopbackClient(addr, 0, 1, 1, 2)
	o.WrapConn = script.wrap
	c := DialWriter(o)

	const steps = 8
	done := make(chan error, 1)
	go func() {
		for step := 0; step < steps; step++ {
			if err := c.Send(step, []byte(fmt.Sprintf("step %d payload", step))); err != nil {
				done <- err
				return
			}
		}
		if err := c.SendEOS(); err != nil {
			done <- err
			return
		}
		done <- c.Drain(10 * time.Second)
	}()

	for step := 0; step < steps; step++ {
		select {
		case d := <-hub.Deliveries(0):
			if d.EOS {
				t.Fatalf("EOS before step %d", step)
			}
			want := fmt.Sprintf("step %d payload", step)
			if d.Step != step || string(d.Payload) != want {
				t.Fatalf("delivery step %d payload %q, want step %d %q", d.Step, d.Payload, step, want)
			}
			d.Release()
		case <-time.After(15 * time.Second):
			t.Fatalf("no delivery for step %d", step)
		}
	}
	d := <-hub.Deliveries(0)
	if !d.EOS {
		t.Fatalf("expected EOS, got step %d", d.Step)
	}
	d.Release()
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if got := c.stats.Reconnects.Value(); got < 3 {
		t.Fatalf("reconnects = %d, want >= 3 (one per injected death)", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClientWrapConnHandshakeLoss drops the first Hello on the floor; the
// dial path must retry within the window and the stream must be unharmed.
func TestClientWrapConnHandshakeLoss(t *testing.T) {
	addr := t.Name()
	hub := startHub(t, addr, 1, 1, 1)
	defer func() { _ = hub.Close() }()

	script := &chaosScript{kill: map[int]bool{1: true}} // first Hello dies
	o := loopbackClient(addr, 0, 1, 1, 1)
	o.WrapConn = script.wrap
	c := DialWriter(o)

	go func() {
		d := <-hub.Deliveries(0)
		d.Release()
	}()
	if err := c.Send(0, []byte("hello after loss")); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
