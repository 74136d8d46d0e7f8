package fabric

import (
	"fmt"
	"sync"
	"time"
)

// ReaderOf maps a writer rank to the endpoint rank that consumes its
// stream in an M:N fan-in — the contiguous block distribution the
// in-process fabric has always used.
func ReaderOf(writer, writers, readers int) int {
	return writer * readers / writers
}

// Delivery is one staged message handed to an endpoint reader. The caller
// must invoke Release once the message has been consumed (for data, once
// the analysis executed the step): releasing returns the writer's credit
// and advances the cumulative release watermark a reconnecting writer
// prunes its retransmit buffer against. Releasing only after execution is
// what makes an endpoint kill lossless — an unexecuted step is never
// acknowledged, so the writer still holds it. Payload is borrowed from the
// hub's buffer pool and goes back with the release: it must not be touched
// afterwards.
type Delivery struct {
	Writer  int
	Step    int
	Payload []byte
	EOS     bool
	from    *hubWriter
	seq     uint32
}

// Release acknowledges the delivery back to its writer. Idempotent, and safe
// on copies of one Delivery: only the release that advances the writer's
// watermark pools the payload.
func (d *Delivery) Release() {
	if d.from != nil && d.from.releaseUpTo(d.seq) {
		d.from.bufs.Put(d.Payload)
	}
	d.from, d.Payload = nil, nil
}

// HubOptions configures the endpoint side of the fabric.
type HubOptions struct {
	// Writers/Readers/Depth are the group geometry; a dialing writer whose
	// Hello disagrees is refused.
	Writers, Readers, Depth int
	// Stats receives the hub's counters; nil allocates a private set.
	Stats *Stats
	// Codecs is the endpoint's codec preference, most preferred first; the
	// first entry a writer's Hello mask supports wins. Nil or no match
	// negotiates raw.
	Codecs []uint8
	// Extract, when non-nil, asks extract-capable writers to ship this
	// reduced product instead of full containers. Writers that did not
	// advertise HelloExtractCapable still ship containers.
	Extract *ExtractSpec
}

// hubWriter is the per-writer-rank connection and sequence state. The
// state outlives any one connection: lastReleased is what makes reconnect
// exactly-once (re-sent frames at or below it are re-acked, not
// re-delivered), and lastDelivered suppresses duplicates still in flight
// to the analysis.
type hubWriter struct {
	bufs *BufPool // the hub's

	mu            sync.Mutex
	sess          *Session      // published only after its Welcome is on the wire
	served        chan struct{} // closed when the serve loop that published sess last has returned
	lastDelivered uint32
	lastReleased  uint32
}

// Hub accepts writer connections and fans their streams in to per-reader
// delivery queues. Each queue is sized writers-of-reader x depth, the
// credit bound, so the serve loops never block on a slow consumer — the
// backpressure point is the writer's exhausted credits, exactly the
// FlexPath queue-depth semantics.
type Hub struct {
	o       HubOptions
	stats   *Stats
	lis     Listener
	bufs    *BufPool
	queues  []chan Delivery
	silence time.Duration // a writer quiet this long is retired; 0 on loopback

	mu      sync.Mutex
	writers map[int]*hubWriter
	closed  bool
}

// NewHub starts serving on lis. Geometry must satisfy writers >= readers
// >= 1 and depth >= 1 (the fabric's standing invariant); violations panic
// as they do in the in-process constructor.
func NewHub(lis Listener, o HubOptions) *Hub {
	if o.Writers < 1 || o.Readers < 1 || o.Writers < o.Readers || o.Depth < 1 {
		panic(fmt.Sprintf("fabric: invalid hub geometry %d writers, %d readers, depth %d",
			o.Writers, o.Readers, o.Depth))
	}
	if o.Stats == nil {
		o.Stats = &Stats{}
	}
	h := &Hub{
		o:     o,
		stats: o.Stats,
		lis:   lis,
		// Every writer's credit bound in delivery copies, plus its session's
		// delta reference.
		bufs:    newBufPool(o.Writers * (o.Depth + 1)),
		queues:  make([]chan Delivery, o.Readers),
		writers: make(map[int]*hubWriter),
	}
	if diesSilently(lis.Addr().Network()) {
		// The writers' heartbeats keep a healthy connection well under it.
		h.silence = 15 * time.Second
	}
	for r := range h.queues {
		n := 0
		for w := 0; w < o.Writers; w++ {
			if ReaderOf(w, o.Writers, o.Readers) == r {
				n++
			}
		}
		h.queues[r] = make(chan Delivery, n*o.Depth)
	}
	go h.acceptLoop()
	return h
}

// Deliveries returns the delivery queue for one endpoint reader rank.
func (h *Hub) Deliveries(reader int) <-chan Delivery {
	return h.queues[reader]
}

// Close stops accepting and drops every writer connection. Queued
// deliveries remain readable.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.bufs.Close()
	writers := make([]*hubWriter, 0, len(h.writers))
	for _, st := range h.writers {
		writers = append(writers, st)
	}
	h.mu.Unlock()
	err := h.lis.Close()
	for _, st := range writers {
		st.mu.Lock()
		sess := st.sess
		st.sess = nil
		st.mu.Unlock()
		if sess != nil {
			_ = sess.Close()
		}
	}
	return err
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.lis.Accept()
		if err != nil {
			return
		}
		go h.serve(conn)
	}
}

// writer returns (creating on first use) the persistent state for a rank.
func (h *Hub) writer(rank int) *hubWriter {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.writers[rank]
	if st == nil {
		st = &hubWriter{bufs: h.bufs}
		h.writers[rank] = st
	}
	return st
}

// serve drives one writer connection: validate the handshake, grant
// credits, then pump frames until the connection dies. A second connection
// for the same rank (the reconnect case) displaces the old one.
func (h *Hub) serve(conn Conn) {
	sess, hello, err := AcceptHello(conn, h.stats)
	if err != nil {
		return
	}
	if hello.Role != RoleWriter ||
		int(hello.Writers) != h.o.Writers ||
		int(hello.Readers) != h.o.Readers ||
		int(hello.Depth) != h.o.Depth ||
		int(hello.Rank) >= h.o.Writers {
		_ = sess.Close()
		return
	}
	rank := int(hello.Rank)
	st := h.writer(rank)
	sess.bufs = h.bufs
	// Negotiate the bandwidth reduction for this connection: codec from the
	// endpoint's preference intersected with the writer's advertised mask,
	// extract only if the writer declared it can compute one.
	welcome := Welcome{Credits: uint32(h.o.Depth), Codec: chooseCodec(h.o.Codecs, hello.Codecs)}
	if h.o.Extract != nil && hello.Flags&HelloExtractCapable != 0 {
		welcome.Extract = *h.o.Extract
	}
	st.mu.Lock()
	welcome.Released = st.lastReleased
	st.mu.Unlock()
	// The Welcome must be the first frame the dialer sees, so the session
	// is published to releaseUpTo only once it is written: a release that
	// lands in between goes to the old connection (or nowhere), and the
	// writer, told a stale watermark, retransmits a frame that the dedup
	// below re-acks.
	if sess.SendWelcome(welcome) != nil {
		return
	}
	served := make(chan struct{})
	defer close(served)
	st.mu.Lock()
	old, oldServed := st.sess, st.served
	st.sess, st.served = sess, served
	st.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	if oldServed != nil {
		// One writer's deliveries must reach the queue in sequence order, and
		// the dedup below decides under st.mu but enqueues outside it: the
		// displaced loop may have claimed a sequence it has not queued yet.
		// Let it finish (it is closed, so that is prompt) before this
		// connection's retransmits can queue anything newer.
		<-oldServed
	}
	reader := ReaderOf(rank, h.o.Writers, h.o.Readers)

	// The returned error is why the connection ended: a read failure, or a
	// data frame that passed the CRC but fails the codec — a protocol breach
	// or lost chain state. Either way the connection is dropped; the writer
	// redials and the fresh session keyframes.
	_ = sess.Run(h.silence, func(typ FrameType, seq uint32, payload []byte) error {
		switch typ {
		case FrameAdvance:
			_ = sess.Send(FrameAdvanceAck, seq, nil)
		case FrameData, FrameEOS:
			// Decode BEFORE the dedup branches: on a reconnect the frames in
			// the (lastReleased, lastDelivered] window are retransmitted but
			// not re-delivered, yet each one must still advance this
			// connection's delta chain or every later frame is undecodable.
			var step int
			var container []byte
			if typ == FrameData {
				var err error
				if step, container, err = sess.DecodeData(payload); err != nil {
					return err
				}
			}
			st.mu.Lock()
			if seq <= st.lastReleased {
				// Retransmit of a message the analysis already consumed
				// (the release was lost with the old connection): re-ack.
				rel := st.lastReleased
				st.mu.Unlock()
				_ = sess.Send(FrameRelease, rel, nil)
				return nil
			}
			if seq <= st.lastDelivered {
				// Duplicate still queued for the analysis; it will be
				// released when that copy is consumed.
				st.mu.Unlock()
				return nil
			}
			st.lastDelivered = seq
			st.mu.Unlock()
			// The container is the session's (the decoder's reference, or the
			// frame reader's buffer) until the next frame; the delivery's copy
			// lives until its release.
			var payload []byte
			if typ == FrameData {
				payload = append(h.bufs.Get(len(container)), container...)
			}
			// Queue capacity equals the credit bound, so this never blocks
			// for a well-behaved writer.
			h.queues[reader] <- Delivery{Writer: rank, Step: step, Payload: payload, EOS: typ == FrameEOS, from: st, seq: seq}
		}
		return nil
	})
	_ = sess.Close()
	st.mu.Lock()
	if st.sess == sess {
		st.sess = nil
	}
	st.mu.Unlock()
}

// releaseUpTo advances the cumulative release watermark and tells the
// writer, returning its credit; it reports whether the watermark moved. Safe
// if the connection is gone — the watermark rides back in the next
// handshake's Welcome.
func (st *hubWriter) releaseUpTo(seq uint32) (advanced bool) {
	st.mu.Lock()
	if advanced = seq > st.lastReleased; advanced {
		st.lastReleased = seq
	}
	rel, sess := st.lastReleased, st.sess
	st.mu.Unlock()
	if sess != nil {
		_ = sess.Send(FrameRelease, rel, nil) // a failed write closes the session; its serve loop retires it
	}
	return advanced
}
