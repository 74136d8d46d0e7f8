// Package fabric is the transport layer of the in transit staging path: a
// from-scratch TCP wire carrying length-prefixed, CRC-protected binary
// frames between a simulation (writer) process and an analysis (endpoint)
// process, matching the paper's §4.1.4 ADIOS/FlexPath deployment where the
// two halves are separate executables connected over the interconnect.
//
// The same code path runs over two interchangeable byte streams behind the
// Conn/Listener interfaces:
//
//   - "tcp": real sockets, so writer and endpoint run as distinct OS
//     processes (even on distinct machines);
//   - "loopback": an in-process synchronous pipe, so every test and the
//     single-process tools stay deterministic while still exercising the
//     full framing, handshake, credit, and release machinery.
//
// Protocol summary (see DESIGN.md §5 for the full state machine):
//
//   - Every frame is `len | type | seq | crc32 | payload` (frame.go); a
//     versioned Hello/Welcome handshake opens each connection
//     (handshake.go).
//   - Flow control is credit-based: the endpoint grants `depth` credits at
//     handshake and returns one Release per consumed message, so a writer
//     blocks exactly when the endpoint's queue depth is exhausted — the
//     FlexPath backpressure the paper's Fig. 8 timings include.
//   - A dropped endpoint is survivable: the writer keeps every unreleased
//     message, redials with seeded exponential backoff + jitter
//     (backoff.go), and retransmits; the endpoint deduplicates by sequence
//     number. This reproduces FlexPath's reconnect-a-recompiled-endpoint-
//     mid-run capability.
//   - Heartbeats bound failure detection and measure link RTT; every frame
//     and byte in or out is tallied in Stats (stats.go) with
//     internal/metrics counters.
package fabric

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Conn is one bidirectional byte stream between a writer and an endpoint.
// It is satisfied by net.Conn; the loopback implementation provides the
// same deadline semantics in-process.
type Conn interface {
	io.Reader
	io.Writer
	Close() error
	//lint:ignore unreferenced lock-blocking and unchecked-close recognise a conn-like interface by this method (internal/lint isConnLike)
	LocalAddr() net.Addr
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener accepts fabric connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() net.Addr
}

// Listen opens a listener on the given network: "tcp" binds a real socket
// (addr like "127.0.0.1:0"), "loopback" registers an in-process name.
func Listen(network, addr string) (Listener, error) {
	switch network {
	case "tcp":
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("fabric: listen %s %s: %w", network, addr, err)
		}
		return &tcpListener{l}, nil
	case "loopback":
		return listenLoopback(addr)
	default:
		return nil, fmt.Errorf("fabric: unknown network %q", network)
	}
}

// Dial opens one connection to a listener. Callers wanting resilience use
// a Backoff loop around Dial (the staging Client does this internally).
func Dial(network, addr string) (Conn, error) {
	switch network {
	case "tcp":
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("fabric: dial %s %s: %w", network, addr, err)
		}
		return c, nil
	case "loopback":
		return dialLoopback(addr)
	default:
		return nil, fmt.Errorf("fabric: unknown network %q", network)
	}
}

// diesSilently reports whether a connection on network can stop carrying
// bytes without either end being told — true of real sockets, not of the
// in-process loopback pipe. It is what arms heartbeats and silence
// deadlines: on loopback they could only add nondeterminism.
func diesSilently(network string) bool { return network != "loopback" }

// tcpListener adapts net.Listener to the fabric Listener interface.
type tcpListener struct {
	l net.Listener
}

// Accept implements Listener.
func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close implements Listener.
func (t *tcpListener) Close() error { return t.l.Close() }

// Addr implements Listener.
func (t *tcpListener) Addr() net.Addr { return t.l.Addr() }
