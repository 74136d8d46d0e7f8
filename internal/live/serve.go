package live

import (
	"sync"
	"sync/atomic"
	"time"

	"gosensei/internal/fabric"
)

// This file puts the viewer connection on the wire: a Server bridges a Hub
// onto a fabric listener so viewers in other OS processes attach over TCP
// (or loopback in tests), receive rendered frames, and push steering
// commands back — the ParaView-Live/VisIt pattern with a real socket
// underneath. Each side holds its connection as a fabric.Session. Viewers
// handshake with RoleViewer; frames ride FrameData, steering rides
// FrameSteer, and FrameRelease carries the per-viewer credit flow. No
// viewer sends heartbeats and the server arms no read deadline, so a viewer
// whose process is gone but whose socket never said so lingers — parked at
// zero credits, which is why that is affordable:
//
//   - The Welcome grants each viewer a credit budget (ServeOptions.Credits).
//     Every frame the server sends consumes one; the viewer's receive pump
//     returns them by sending FrameRelease with its cumulative received
//     count once a frame has crossed the wire.
//   - A viewer whose connection stops draining exhausts its credits and is
//     simply skipped: its pusher takes nothing while the hub's snapshot
//     moves on, and the moment credits return it takes the newest frame. A
//     slow or stalled viewer therefore costs the server nothing per
//     publish — no write-deadline stall per frame, no queue growth.
//   - The frame bytes a viewer receives are the hub's sealed wire buffer
//     (FrameRef.Wire()), encoded once per publish and written verbatim to
//     every connection: the fan-out path copies nothing per viewer.
//   - The receive side allocates nothing per frame either: a viewer decodes
//     each frame into a recycled Frame, and Next gives the one it returned
//     last back to the pump. A viewer holds at most three frames (the one
//     its consumer reads, the slotted one, the one being filled) plus its
//     session's payload buffer and 4 KiB read-ahead.

// ServeOptions tunes the wire side of a hub; the zero value selects the
// defaults.
type ServeOptions struct {
	// Credits is the per-viewer in-flight frame budget granted in the
	// Welcome. Default 2: one frame crossing the wire while the next is
	// queued behind it.
	Credits int
}

const defaultViewerCredits = 2

// Server accepts viewer connections on a fabric listener and bridges them
// to a Hub: every frame the pipeline publishes is pushed to each attached
// viewer (newest-wins on lag, credit-bounded on the wire), a late joiner is
// seeded from the hub's snapshot immediately on attach, and steering
// commands from viewers land in the hub's coalesced table for the
// simulation's next DrainCommands.
type Server struct {
	hub     *Hub
	lis     fabric.Listener
	stats   *fabric.Stats
	credits int

	mu     sync.Mutex
	closed bool
}

// Serve starts accepting viewers on lis with default options.
func Serve(lis fabric.Listener, hub *Hub) *Server {
	return ServeWith(lis, hub, ServeOptions{})
}

// ServeWith starts accepting viewers on lis, tuned by o.
func ServeWith(lis fabric.Listener, hub *Hub, o ServeOptions) *Server {
	if o.Credits <= 0 {
		o.Credits = defaultViewerCredits
	}
	s := &Server{hub: hub, lis: lis, stats: &fabric.Stats{}, credits: o.Credits}
	go s.acceptLoop()
	return s
}

// Stats returns the server-side wire counters.
func (s *Server) Stats() *fabric.Stats { return s.stats }

// Addr returns the listener address viewers dial.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting viewers. Attached viewers are detached as their
// connections fail.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.lis.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

// serve drives one viewer connection: frames out under credit flow,
// steering and releases in.
func (s *Server) serve(conn fabric.Conn) {
	sess, hello, err := fabric.AcceptHello(conn, s.stats)
	if err != nil {
		return
	}
	if hello.Role != fabric.RoleViewer {
		_ = sess.Close()
		return
	}
	if sess.SendWelcome(fabric.Welcome{Credits: uint32(s.credits)}) != nil {
		return
	}
	// Attach on the zero-copy path: the subscription's first take is the
	// hub's snapshot, so the pusher's first write is the current frame — a
	// late joiner sees an image immediately, not at the next publish.
	sub := s.hub.SubscribeRef()
	defer sub.Cancel()

	// The credit ledger: sent is pusher-local, released is the cumulative
	// count the viewer's FrameRelease frames carry back. The pusher sends
	// only while sent-released < credits, so a viewer that stops draining
	// is skipped (it takes the newest frame once credits return) instead
	// of stalling a write until the deadline. The ready latch is armed
	// again only after it fired; a credit wake-up leaves it armed.
	var released atomic.Uint32
	creditCh := make(chan struct{}, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sent uint32
		rdy := sub.ready()
		for {
			select {
			case <-stop:
				return
			case <-rdy:
				rdy = nil
			case <-creditCh:
			}
			for sent-released.Load() < uint32(s.credits) {
				ref := sub.take()
				if ref == nil {
					break
				}
				werr := sess.SendSealed(ref.Wire())
				ref.Release()
				if werr != nil {
					return // the session closed itself; the pump below sees it
				}
				sent++
			}
			if rdy == nil {
				rdy = sub.ready()
			}
		}
	}()

	_ = sess.Run(0, func(typ fabric.FrameType, seq uint32, payload []byte) error {
		switch typ {
		case fabric.FrameSteer:
			if name, value, err := fabric.DecodeSteerPayload(payload); err == nil {
				s.hub.SendCommand(name, value)
			}
		case fabric.FrameRelease:
			// Cumulative, monotonic: stale or reordered releases are no-ops.
			if seq > released.Load() {
				released.Store(seq)
				select {
				case creditCh <- struct{}{}:
				default:
				}
			}
		}
		return nil
	})
	_ = sess.Close() // fails a push in flight, so the pusher reaches stop
	close(stop)
	<-done
}

// ViewerOptions tunes DialViewerWith.
type ViewerOptions struct {
	// WrapConn, when non-nil, decorates the dialed connection before the
	// handshake — the faultline seam for injecting wire faults into a live
	// viewer session.
	WrapConn func(fabric.Conn) fabric.Conn
}

// Viewer is the remote end of a live connection: frames arrive on the
// newest-wins Next API, steering goes back with Steer — from a different OS
// process than the simulation when dialed over TCP.
type Viewer struct {
	sess *fabric.Session

	// The client-side newest-wins slot: the receive pump never blocks on a
	// slow consumer — it replaces the undelivered frame and keeps
	// draining the wire, so the connection (and its credit flow) stays
	// live no matter what the application does with Next.
	slot atomic.Pointer[Frame]
	rdy  chan struct{} // cap 1: set when the slot is filled
	done chan struct{} // closed when the receive pump exits

	// Frames are recycled, not allocated per receive. held is the frame
	// Next returned last (Next's alone); the next Next gives it back to
	// free, the pump's free list, and so does the pump with a slotted frame
	// it displaces before the consumer took it. At most three frames exist
	// (held, slotted, filling), so whoever gives one back finds at most two
	// in free: cap 2 never drops one.
	held *Frame
	free chan *Frame

	recvd atomic.Uint64
}

// DialViewer attaches to a live server.
func DialViewer(network, addr string) (*Viewer, error) {
	return DialViewerWith(network, addr, ViewerOptions{})
}

// DialViewerWith attaches to a live server with options.
func DialViewerWith(network, addr string, o ViewerOptions) (*Viewer, error) {
	conn, err := fabric.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if o.WrapConn != nil {
		conn = o.WrapConn(conn)
	}
	sess, _, err := fabric.DialHello(conn, fabric.Hello{Role: fabric.RoleViewer}, nil)
	if err != nil {
		return nil, err
	}
	v := &Viewer{
		sess: sess,
		rdy:  make(chan struct{}, 1),
		done: make(chan struct{}),
		free: make(chan *Frame, 2),
	}
	go v.recvPump()
	return v, nil
}

// Next blocks until a frame is available (newest-wins: intervening frames
// the caller was too slow for are skipped), the viewer closes (ok=false),
// or the timeout elapses (ok=false; timeout <= 0 waits forever).
//
// The returned PNG is lent, not copied: it is valid until the next Next or
// Close on this viewer, whose receive pump then refills the buffer. One
// goroutine calls Next; a caller that keeps the bytes copies them first.
func (v *Viewer) Next(timeout time.Duration) (Frame, bool) {
	if v.held != nil {
		v.recycle(v.held)
		v.held = nil
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		if v.held = v.slot.Swap(nil); v.held != nil {
			return *v.held, true
		}
		select {
		case <-v.rdy:
		case <-v.done:
			// The pump may have slotted a final frame before exiting.
			if v.held = v.slot.Swap(nil); v.held != nil {
				return *v.held, true
			}
			return Frame{}, false
		case <-expired:
			return Frame{}, false
		}
	}
}

// Steer sends one steering command to the simulation.
func (v *Viewer) Steer(name string, value float64) error {
	return v.sess.SendFunc(fabric.FrameSteer, 0, func(dst []byte) []byte {
		return fabric.AppendSteerPayload(dst, name, value)
	})
}

// Close detaches from the server. Idempotent.
func (v *Viewer) Close() error { return v.sess.Close() }

// recycle returns a frame nobody reads any more to the pump's free list.
func (v *Viewer) recycle(f *Frame) {
	select {
	case v.free <- f:
	default:
	}
}

// recvPump drains the wire. It never blocks on the consumer: each frame is
// decoded into a recycled Frame that replaces the slot (newest-wins, the
// displaced one going back to the free list) and its credit is returned
// immediately, so a viewer whose application stops reading still keeps its
// connection — and every other viewer's — healthy.
func (v *Viewer) recvPump() {
	defer close(v.done)
	_ = v.sess.Run(0, func(typ fabric.FrameType, _ uint32, payload []byte) error {
		if typ != fabric.FrameData {
			return nil
		}
		var f *Frame
		select {
		case f = <-v.free:
		default:
			f = new(Frame)
		}
		if err := decodeFramePayload(f, payload); err != nil {
			return err
		}
		n := v.recvd.Add(1)
		if old := v.slot.Swap(f); old != nil {
			v.recycle(old)
		}
		select {
		case v.rdy <- struct{}{}:
		default:
		}
		// The frame crossed the wire: return its credit, as the cumulative
		// count of frames taken off it. A failed write closed the session;
		// the next read surfaces it.
		_ = v.sess.Send(fabric.FrameRelease, uint32(n), nil)
		return nil
	})
}
