package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSessionClosed is returned by writes on a closed Session.
var ErrSessionClosed = errors.New("fabric: session closed")

// writeDeadline bounds every frame write. It is a backstop, not flow
// control: each protocol keeps a stalled peer off the write path with its
// own credits, so a write that runs into the deadline means the peer is gone
// and the session closes.
const writeDeadline = 10 * time.Second

// Session is one handshaken connection — the single way staging
// (Client/Hub), live (Server/Viewer) and world (mesh peers, registry) hold
// one. It is born in DialHello or AcceptHello together with the FrameReader
// that may already have buffered past the handshake, and owns everything
// that is the same for every user of the wire:
//
//   - writes: any number of goroutines may send; each frame is built in
//     place in one scratch buffer (or arrives pre-sealed), and reaches the
//     connection as exactly one deadline-bounded conn.Write under the write
//     lock, so frames never interleave;
//   - the read pump (Run): counts frames, answers heartbeats, and hands
//     everything else to the owner's handler;
//   - the codec the handshake negotiated: a session is one connection
//     epoch, so the delta chain lives and dies with it and a reconnect's
//     first data frame is a keyframe by construction;
//   - Close, idempotent, from any goroutine.
//
// What differs between users — staging's retransmit buffer and
// release-after-execute credits, live's skip-to-newest, world's envelope
// delivery and EOS goodbye — is policy in their handlers, on top.
type Session struct {
	conn         Conn
	fr           *FrameReader
	stats        *Stats
	codec        uint8 // negotiated in the handshake, fixed afterwards
	writeTimeout time.Duration
	closed       atomic.Bool

	// wmu is the write lock: it guards scratch and enc and is held across
	// the conn.Write, so its acquisition order is the wire order (which is
	// what pins the delta chain to frame order). It guards nothing a reader
	// needs: Run calls the owner's handler without it, so a write stalled on
	// a peer that is not reading can never stop this side from reading —
	// the PR 3 deadlock needed the recv pump to wait for the lock the
	// stalled writer held. The pump takes wmu itself only to echo a
	// heartbeat, and on any one connection at most one end's pump ever
	// writes (the staging hub's acks, the live viewer's releases, nobody in
	// a world mesh) while the other end's only reads, so two pumps cannot
	// stall each other either.
	wmu     sync.Mutex
	scratch []byte
	enc     *codecEncoder

	dec *codecDecoder // the pump goroutine's alone

	// bufs is the owner's pool the codec state borrows from (nil:
	// allocate); the owner sets it before the session carries data.
	bufs *BufPool
}

func newSession(c Conn, stats *Stats) *Session {
	return &Session{
		conn:         c,
		fr:           NewFrameReader(c, MaxPayload),
		stats:        stats,
		writeTimeout: writeDeadline,
		scratch:      make([]byte, FrameOverhead, 64),
	}
}

// WrapConn decorates the connection once the handshake has told the owner
// who the peer is (world keys its conn wrappers by peer rank). Frames
// already buffered by the handshake stay readable; call it before the
// session is shared with a second goroutine.
func (s *Session) WrapConn(wrap func(Conn) Conn) { s.conn = wrap(s.conn) }

// Send writes one frame, copying payload into the session's scratch.
func (s *Session) Send(typ FrameType, seq uint32, payload []byte) error {
	return s.SendFunc(typ, seq, func(dst []byte) []byte { return append(dst, payload...) })
}

// SendFunc writes one frame whose payload build appends in place to the
// scratch it is handed (dst already holds the reserved frame header). build
// runs under the write lock: it must not block or call back into the
// session.
func (s *Session) SendFunc(typ FrameType, seq uint32, build func(dst []byte) []byte) error {
	return s.send(typ, seq, func(dst []byte) ([]byte, error) { return build(dst), nil }, nil)
}

// SendSealed writes a complete frame some other party sealed (SealFrame or
// AppendFrame) verbatim — the fan-out path, where one immutable buffer goes
// to many sessions and nothing is copied per connection.
func (s *Session) SendSealed(frame []byte) error {
	return s.send(0, 0, nil, frame)
}

// SendData writes one staged step as a FrameData frame under the negotiated
// codec. Encoding happens under the write lock, so the delta chain advances
// in wire order; the first data frame of a session is always a keyframe.
func (s *Session) SendData(seq uint32, step int, container []byte) error {
	wire := 0
	err := s.send(FrameData, seq, func(dst []byte) ([]byte, error) {
		dst, err := s.appendData(dst, step, container)
		wire = len(dst) - FrameOverhead
		return dst, err
	}, nil)
	if err == nil {
		s.stats.CountData(8+len(container), wire)
	}
	return err
}

// appendData appends the step's wire form; s.wmu is held.
func (s *Session) appendData(dst []byte, step int, container []byte) ([]byte, error) {
	if s.codec == CodecRaw {
		return AppendStepPayload(dst, step, container), nil
	}
	if s.enc == nil {
		s.enc = newCodecEncoder(s.codec, s.bufs)
	}
	flags := len(dst) + codedStepHeader - 1
	dst, key, err := s.enc.encode(AppendCodedStepPayload(dst, step, s.codec, false, nil), container)
	if key {
		dst[flags] |= codedKeyframe
	}
	return dst, err
}

// send is the one place a frame reaches the wire: sealed verbatim, or built
// in place behind the reserved header and sealed here. Any failure — a
// build error, a dead peer, the deadline — may have left half a frame on
// the wire or a codec chain out of step, so it closes the session.
func (s *Session) send(typ FrameType, seq uint32, build func(dst []byte) ([]byte, error), sealed []byte) (err error) {
	s.wmu.Lock()
	defer func() {
		s.wmu.Unlock()
		if err != nil {
			_ = s.Close() // the write error is the one worth reporting
		}
	}()
	if s.closed.Load() {
		return ErrSessionClosed
	}
	frame := sealed
	if frame == nil {
		if frame, err = build(s.scratch[:FrameOverhead]); err != nil {
			return err
		}
		SealFrame(frame, typ, seq)
		s.scratch = frame
	}
	if err = s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil {
		return err
	}
	//lint:ignore lock-blocking s.wmu is the write-serialization lock and guards only the scratch and encoder this write uses; the write is deadline-bounded, Run calls handlers without wmu and Close closes the conn before taking it, so a stalled peer costs other writers at most the deadline and cannot form the PR 3 cycle (DESIGN.md §4.7)
	if _, err = s.conn.Write(frame); err != nil {
		return err
	}
	s.stats.CountOut(len(frame))
	return nil
}

// Ping sends a heartbeat probe carrying the send time; the peer's pump
// echoes it and this side's pump turns the echo into an RTT sample.
func (s *Session) Ping() error {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], uint64(time.Now().UnixNano()))
	return s.Send(FrameHeartbeat, 0, p[:])
}

// Run is the read pump: it reads frames until the connection fails or
// handle returns an error, and returns that error. Heartbeats are the
// session's own business — a probe is echoed, an echo is counted — and never
// reach handle. silence > 0 arms a read deadline before every frame, so a
// peer that goes quiet that long is declared dead. payload is valid only
// until handle returns. One goroutine at a time; Run does not close the
// session (a world peer keeps writing after its peer's goodbye).
func (s *Session) Run(silence time.Duration, handle func(typ FrameType, seq uint32, payload []byte) error) error {
	defer func() {
		s.dec.close()
		s.dec = nil
	}()
	for {
		if silence > 0 {
			if err := s.conn.SetReadDeadline(time.Now().Add(silence)); err != nil {
				return err
			}
		}
		typ, seq, payload, err := s.fr.Next()
		if err != nil {
			return err
		}
		s.stats.CountIn(len(payload))
		switch typ {
		case FrameHeartbeat:
			_ = s.Send(FrameHeartbeatAck, seq, payload) // a failed echo closed the session; the next read says so
		case FrameHeartbeatAck:
			if len(payload) == 8 {
				sent := int64(binary.LittleEndian.Uint64(payload))
				s.stats.countHeartbeat(time.Duration(time.Now().UnixNano() - sent))
			}
		default:
			if err := handle(typ, seq, payload); err != nil {
				return err
			}
		}
	}
}

// DecodeData reverses SendData for one FrameData payload, under the
// negotiated codec. It must be called from the handler (the pump goroutine
// owns the decoder state, and every data frame must pass through in order
// or the delta chain breaks); container is valid until the next call.
func (s *Session) DecodeData(payload []byte) (step int, container []byte, err error) {
	if s.codec == CodecRaw {
		step, container, err = SplitStepPayload(payload)
	} else {
		var cid uint8
		var key bool
		var body []byte
		step, cid, key, body, err = SplitCodedStepPayload(payload)
		if err == nil && cid != s.codec {
			err = fmt.Errorf("fabric: frame codec %s, negotiated %s", CodecName(cid), CodecName(s.codec))
		}
		if err == nil {
			if s.dec == nil {
				s.dec = newCodecDecoder(s.codec, MaxPayload, s.bufs)
			}
			container, err = s.dec.decode(body, key)
		}
	}
	if err != nil {
		return 0, nil, err
	}
	s.stats.CountData(8+len(container), len(payload))
	return step, container, nil
}

// Close tears the connection down and returns the encoder's buffers to the
// pool. Safe from any goroutine, any number of times.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.conn.Close() // fails a write in flight, so wmu frees promptly
	s.wmu.Lock()
	s.enc.close()
	s.enc = nil
	s.wmu.Unlock()
	return err
}
