package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClientClosed is returned by operations on a closed Client.
var ErrClientClosed = errors.New("fabric: client closed")

// ClientOptions configures one writer-side connection to a staging endpoint.
type ClientOptions struct {
	// Network/Addr locate the endpoint ("tcp" + host:port, or "loopback" +
	// name).
	Network, Addr string
	// Rank is this writer's rank; Writers/Readers/Depth are the group
	// geometry the endpoint must agree with.
	Rank, Writers, Readers, Depth int
	// RetryWindow bounds how long a disconnected writer keeps redialing
	// before giving up — the ride-out budget for an endpoint restart.
	// 0 selects 15s.
	RetryWindow time.Duration
	// Stats receives the connection's counters; nil allocates a private set.
	Stats *Stats
	// Codecs is the bitmask of codec IDs (1 << id) advertised in the Hello;
	// 0 advertises AllCodecs. The endpoint picks one per connection and
	// every data frame on that connection is encoded with it.
	Codecs uint32
	// ExtractCapable advertises that the caller can compute negotiated
	// extracts and ship the reduced product instead of full containers.
	ExtractCapable bool
	// WrapConn, when set, decorates every freshly dialed connection before
	// the handshake — the fault-injection seam (internal/faultline wraps
	// conns here to kill, truncate, or stall traffic deterministically).
	// Nil leaves connections untouched.
	WrapConn func(rank int, conn Conn) Conn

	// What the rest is derived from, settable only by this package's tests:
	// heartbeat paces keepalive probes (0: 500ms on a network whose
	// connections can die silently, off on loopback) and the endpoint is
	// declared dead after 8 silent intervals; backoff schedules redial
	// delays (nil: the default schedule seeded from Rank).
	heartbeat time.Duration
	backoff   *Backoff
}

// pendingFrame is one credit-consuming message awaiting release; it is the
// retransmit unit after a reconnect. A data frame's container is the
// client's copy, borrowed from its pool until the release.
type pendingFrame struct {
	typ       FrameType
	seq       uint32
	step      int
	container []byte
}

// advanceWait tracks one outstanding Advance round trip.
type advanceWait struct {
	step uint32
	done chan struct{}
}

// Client is the writer side of the staging fabric. Send blocks when the
// endpoint's queue depth is exhausted (credit flow control); a dead
// connection is redialed with backoff and unreleased messages are
// retransmitted, so the writer rides out an endpoint restart without
// losing steps. All methods are safe for concurrent use, though the
// staging writer protocol is sequential (Send*, Advance, then Drain/Close).
type Client struct {
	o           ClientOptions
	hbInterval  time.Duration
	readTimeout time.Duration
	retryWindow time.Duration
	backoff     *Backoff
	stats       *Stats
	bufs        *BufPool

	// mu guards the protocol state below and is never held across a session
	// write: the recv pump needs it to process a Release, and on a
	// synchronous transport (net.Pipe) a writer holding it while blocked
	// deadlocks against an endpoint blocked writing that Release.
	mu         sync.Mutex
	cond       *sync.Cond
	sess       *Session // the current connection epoch; nil while redialing
	pending    []pendingFrame
	released   [][]byte // containers of released frames, pooled again once writing is 0
	writing    int      // transmits in flight (Send's, install's), each reading pending containers unlocked
	nextSeq    uint32
	credits    int
	adv        *advanceWait
	connected  bool // a handshake has succeeded at least once
	installing bool // a reconnect is retransmitting; Send/Advance must wait
	closed     bool
	fatal      error
	broken     chan struct{} // kicks the run loop when the conn dies
	done       chan struct{} // closed by Close and by the fatal path: stops the heartbeat at once
	codec      uint8         // negotiated codec for the current connection
	extract    ExtractSpec   // negotiated extract (Kind 0: none)
}

// DialWriter creates a client. Connection is lazy: the first Send/Advance
// blocks until the handshake grants credits, and dial failures inside the
// retry window are retried transparently.
func DialWriter(o ClientOptions) *Client {
	c := &Client{
		o:           o,
		hbInterval:  o.heartbeat,
		retryWindow: o.RetryWindow,
		backoff:     o.backoff,
		stats:       o.Stats,
		// The credit bound, the copy Send makes before it waits for a credit,
		// and a delta encoder's reference and planes.
		bufs:   newBufPool(o.Depth + 3),
		broken: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if c.hbInterval == 0 && diesSilently(o.Network) {
		c.hbInterval = 500 * time.Millisecond
	}
	if c.hbInterval > 0 {
		c.readTimeout = 8 * c.hbInterval
	}
	if c.retryWindow == 0 {
		c.retryWindow = 15 * time.Second
	}
	if c.backoff == nil {
		c.backoff = NewBackoff(int64(o.Rank) + 1)
	}
	if c.stats == nil {
		c.stats = &Stats{}
	}
	go c.run()
	if c.hbInterval > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// Negotiated blocks until the first handshake completes (or the client
// dies) and reports the codec and extract the endpoint chose. Reconnects to
// the same endpoint renegotiate but the answer is stable for a fixed hub
// configuration, so callers may shape their payloads around it for the
// whole run.
func (c *Client) Negotiated() (codec uint8, extract ExtractSpec, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.connected && c.fatal == nil && !c.closed {
		c.cond.Wait()
	}
	if c.fatal != nil {
		return 0, ExtractSpec{}, c.fatal
	}
	if !c.connected && c.closed {
		return 0, ExtractSpec{}, ErrClientClosed
	}
	return c.codec, c.extract, nil
}

// Send stages one step's container. It blocks while the endpoint's queue
// depth is exhausted (no credits) and returns only on a closed client or a
// connection declared unrecoverable (retry window exhausted). The payload
// is copied, so the caller may reuse its buffer.
func (c *Client) Send(step int, container []byte) error {
	return c.sendMsg(FrameData, step, append(c.bufs.Get(len(container)), container...))
}

// SendEOS stages the end-of-stream marker. Like a data message it consumes
// a credit: EOS occupies a queue slot at the endpoint, as the in-process
// channel fabric always modeled.
func (c *Client) SendEOS() error {
	return c.sendMsg(FrameEOS, 0, nil)
}

func (c *Client) sendMsg(typ FrameType, step int, container []byte) error {
	c.mu.Lock()
	for (c.credits == 0 || c.installing) && c.fatal == nil && !c.closed {
		c.cond.Wait()
	}
	if err := c.deadLocked(); err != nil {
		c.mu.Unlock()
		c.bufs.Put(container)
		return err
	}
	c.credits--
	c.nextSeq++
	p := pendingFrame{typ: typ, seq: c.nextSeq, step: step, container: container}
	c.pending = append(c.pending, p)
	sess := c.sess
	c.writing++
	c.mu.Unlock()
	if sess != nil {
		// A write failure is not a Send failure: the message is pending and
		// will be retransmitted after the reconnect.
		_ = transmit(sess, p)
	}
	c.mu.Lock()
	c.writing--
	c.recycleLocked()
	c.mu.Unlock()
	return nil
}

// deadLocked reports why the client can take no more messages, nil while it
// can; c.mu must be held.
func (c *Client) deadLocked() error {
	if c.fatal == nil && c.closed {
		return ErrClientClosed
	}
	return c.fatal
}

// transmit writes one credit-consuming message. Sequential callers — the
// staging writer protocol — see their frames reach the wire in program
// order.
func transmit(sess *Session, p pendingFrame) error {
	if p.typ == FrameData {
		return sess.SendData(p.seq, p.step, p.container)
	}
	return sess.Send(p.typ, p.seq, nil)
}

// Advance publishes step metadata and waits for the endpoint's
// acknowledgement — the adios::advance exchange of the paper's Fig. 8,
// here a real round trip on the wire.
func (c *Client) Advance(step int) error {
	c.mu.Lock()
	for (c.adv != nil || c.installing) && c.fatal == nil && !c.closed {
		c.cond.Wait()
	}
	if err := c.deadLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	done := make(chan struct{})
	c.adv = &advanceWait{step: uint32(step), done: done}
	sess := c.sess
	c.mu.Unlock()
	if sess != nil {
		_ = sess.Send(FrameAdvance, uint32(step), nil) // lost with the conn: install re-sends it
	}

	timeout := c.retryWindow + c.readTimeout + 5*time.Second
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		c.mu.Lock()
		err := c.fatal
		c.mu.Unlock()
		return err
	case <-timer.C:
		c.mu.Lock()
		if c.adv != nil && c.adv.done == done {
			c.adv = nil
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		return fmt.Errorf("fabric: advance step %d not acknowledged within %v", step, timeout)
	}
}

// Drain blocks until every sent message has been released by the endpoint
// (consumed by the analysis), or the timeout expires.
func (c *Client) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer wake.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 {
		if c.fatal != nil {
			return c.fatal
		}
		if c.closed {
			return fmt.Errorf("%w with %d unreleased messages", ErrClientClosed, len(c.pending))
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("fabric: drain timed out after %v with %d unreleased messages", timeout, len(c.pending))
		}
		c.cond.Wait()
	}
	return nil
}

// Close tears the connection down. Messages not yet released are dropped;
// call Drain first for a clean shutdown.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.stopLocked()
	c.breakLocked(c.sess)
	c.bufs.Close()
	if c.adv != nil {
		close(c.adv.done)
		c.adv = nil
	}
	c.cond.Broadcast()
	return nil
}

// run is the connection-lifecycle loop: (re)establish, then wait for the
// recv pump to report death, forever until closed or the retry window is
// exhausted.
func (c *Client) run() {
	for {
		c.mu.Lock()
		if c.closed || c.fatal != nil {
			c.mu.Unlock()
			return
		}
		needConn := c.sess == nil
		c.mu.Unlock()
		if needConn {
			if err := c.connect(); err != nil {
				c.mu.Lock()
				if c.fatal == nil {
					c.fatal = err
				}
				c.stopLocked()
				if c.adv != nil {
					close(c.adv.done)
					c.adv = nil
				}
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			}
		}
		<-c.broken
	}
}

// connect dials and handshakes inside the retry window, then installs the
// session.
func (c *Client) connect() error {
	start := time.Now()
	hello := Hello{
		Role:    RoleWriter,
		Rank:    uint32(c.o.Rank),
		Writers: uint32(c.o.Writers),
		Readers: uint32(c.o.Readers),
		Depth:   uint32(c.o.Depth),
		Codecs:  c.o.Codecs,
	}
	if hello.Codecs == 0 {
		hello.Codecs = AllCodecs
	}
	if c.o.ExtractCapable {
		hello.Flags |= HelloExtractCapable
	}
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClientClosed
		}
		conn, err := Dial(c.o.Network, c.o.Addr)
		if err == nil {
			if c.o.WrapConn != nil {
				conn = c.o.WrapConn(c.o.Rank, conn)
			}
			var sess *Session
			var w Welcome
			if sess, w, err = DialHello(conn, hello, c.stats); err == nil {
				c.install(sess, w)
				return nil
			}
		}
		if time.Since(start) >= c.retryWindow {
			return fmt.Errorf("fabric: writer %d could not reach %s %s within %v: %w",
				c.o.Rank, c.o.Network, c.o.Addr, c.retryWindow, err)
		}
		time.Sleep(c.backoff.Delay(attempt))
	}
}

// install makes sess the current connection: prune messages the endpoint
// already released, restore credits, start the recv pump, and retransmit
// the rest. A fresh session keyframes its first data frame — the
// delta-chain reset a restarted endpoint needs.
func (c *Client) install(sess *Session, w Welcome) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = sess.Close()
		return
	}
	// Prune everything the endpoint consumed before the connection dropped
	// (its Welcome carries the cumulative released sequence).
	c.releaseLocked(w.Released)
	c.credits = max(int(w.Credits)-len(c.pending), 0)
	sess.bufs = c.bufs
	c.sess = sess
	c.codec = w.Codec
	c.extract = w.Extract
	reconnect := c.connected
	c.connected = true
	if reconnect {
		c.stats.Reconnects.Inc()
	}
	// With the session and credits published a concurrent Send could
	// otherwise race a newer sequence onto the wire between retransmits —
	// and the hub's cumulative dedup would then swallow the late older
	// retransmits without delivering them. installing holds Send/Advance in
	// their wait loops until every retransmit is out, so the snapshot below
	// is complete; a Release during the loop (the endpoint may have had the
	// frame queued since before the connection dropped) parks its container
	// in c.released until the loop is over, and the credits it frees stay
	// gated too. A re-sent already-released frame is re-acked, not
	// re-delivered.
	c.installing = true
	c.writing++
	retransmits, adv := append([]pendingFrame(nil), c.pending...), c.adv
	c.mu.Unlock()

	// The recv pump must be reading BEFORE the retransmits go out: the
	// endpoint can start releasing as soon as the first retransmit is
	// consumed, and on a synchronous transport an unread Release write
	// stalls the endpoint's serve loop — which then stops reading our
	// remaining retransmits, a distributed deadlock until the write
	// deadline.
	go c.recvPump(sess)
	for _, p := range retransmits {
		if transmit(sess, p) != nil {
			break
		}
		if reconnect {
			c.stats.Retransmits.Inc()
		}
	}
	if adv != nil {
		_ = sess.Send(FrameAdvance, adv.step, nil)
	}
	c.mu.Lock()
	c.installing = false
	c.writing--
	c.recycleLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// breakLocked retires a dead session and kicks the run loop; c.mu must be
// held.
func (c *Client) breakLocked(sess *Session) {
	if sess != nil {
		_ = sess.Close()
	}
	if c.sess == sess {
		c.sess = nil
	}
	select {
	case c.broken <- struct{}{}:
	default:
	}
}

// recvPump turns releases and advance acks into protocol state until the
// connection dies — by itself or because a failed write closed the session.
func (c *Client) recvPump(sess *Session) {
	_ = sess.Run(c.readTimeout, func(typ FrameType, seq uint32, _ []byte) error {
		switch typ {
		case FrameRelease:
			c.handleRelease(seq)
		case FrameAdvanceAck:
			c.handleAdvanceAck(seq)
		}
		return nil
	})
	c.mu.Lock()
	c.breakLocked(sess)
	c.mu.Unlock()
}

// handleRelease frees every pending message up to the cumulative sequence,
// returning their credits — this is what unblocks a backpressured Send.
func (c *Client) handleRelease(upTo uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.releaseLocked(upTo); n > 0 {
		c.credits += n
		c.cond.Broadcast()
	}
}

// releaseLocked drops every pending message up to the cumulative sequence
// and reports how many there were; c.mu must be held.
func (c *Client) releaseLocked(upTo uint32) int {
	n := 0
	for n < len(c.pending) && c.pending[n].seq <= upTo {
		c.released = append(c.released, c.pending[n].container)
		n++
	}
	c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	c.recycleLocked()
	return n
}

// recycleLocked hands the released containers back to the pool, unless a
// transmit is in flight: it reads its frame's container without c.mu, and
// the frame may be released (delivered by an earlier connection, or by a
// reconnect's retransmit) before that read is over. c.mu must be held.
func (c *Client) recycleLocked() {
	if c.writing > 0 {
		return
	}
	for i := range c.released {
		c.bufs.Put(c.released[i])
		c.released[i] = nil
	}
	c.released = c.released[:0]
}

func (c *Client) handleAdvanceAck(step uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.adv != nil && c.adv.step == step {
		close(c.adv.done)
		c.adv = nil
		c.cond.Broadcast()
	}
}

// stopLocked closes done once; a client can fail and then be closed, or be
// closed while its last connect is failing. Callers hold c.mu.
func (c *Client) stopLocked() {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// heartbeatLoop probes the endpoint at the configured interval; sustained
// silence trips the pump's read deadline and forces a reconnect. It ends the
// moment the client does — Close does not wait for it, and it must not
// outlive Close by an interval either.
func (c *Client) heartbeatLoop() {
	t := time.NewTicker(c.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		sess := c.sess
		c.mu.Unlock()
		if sess != nil {
			_ = sess.Ping() // a failed probe closed the session; the pump reports it
		}
	}
}
