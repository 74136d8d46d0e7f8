package fabric

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// ProtocolVersion is bumped on any incompatible wire change; both halves of
// the handshake lead with it — the FlexPath property that a recompiled
// endpoint can rejoin a run only if it still speaks the writer's protocol.
// Every peer is built from this module, so there is exactly one version: a
// Hello or Welcome announcing any other is refused with a version-mismatch
// error and the connection is closed.
//
// The exchange negotiates bandwidth reduction (the Hello advertises the
// writer's codec set and extract capability, the Welcome answers with the
// codec the endpoint chose and an optional extract specification) and, for
// RoleRank peers, cross-process MPI world membership (the Hello names the
// world being joined and the peer's own listener address for the mesh, the
// Welcome echoes the world identity with the rank confirmed).
//
// Version 4 kept the handshake's layout and changed what follows it: the
// body of a CodecDelta data frame (codec.go).
const ProtocolVersion = 4

// Role identifies what a dialing peer is.
type Role uint8

// The peer roles. Writers stage steps under credit flow control; viewers
// attach to a live hub for frames and steering; ranks are members of a
// cross-process MPI world registering with its registry or meshing with a
// peer rank (internal/world).
const (
	RoleWriter Role = 1
	RoleViewer Role = 2
	RoleRank   Role = 3
)

// Hello flag bits.
const (
	// HelloExtractCapable marks a writer that can compute negotiated
	// extracts (histogram, slice) locally and ship the reduced product in
	// place of the full container.
	HelloExtractCapable uint32 = 1 << 0
)

// Extract kinds carried in a Welcome's ExtractSpec.
const (
	_ uint8 = iota // none: the endpoint takes full containers
	ExtractHistogram
	ExtractSlice
)

// ExtractSpec describes the reduced product an endpoint wants in place of
// full staged containers — the Catalyst-ADIOS2 "reduce before the wire"
// pattern. Kind selects the product; the remaining fields parameterize it
// (Bins and Array/Assoc for histograms; Axis, Coord, Array for slices).
type ExtractSpec struct {
	Kind  uint8
	Assoc uint8
	Bins  uint32
	Axis  uint32
	Coord float64
	Array string
}

// Hello is the dialer's half of the handshake: who it is and, for writers,
// the group geometry it believes it is joining, plus the bandwidth-reduction
// capabilities it offers. The acceptor validates the geometry so a
// misconfigured writer fails loudly at connect rather than silently
// misrouting blocks.
type Hello struct {
	Version uint32
	Role    Role
	Rank    uint32
	Writers uint32
	Readers uint32
	Depth   uint32
	// Codecs is the bitmask of codec IDs the dialer can encode (1 << id).
	Codecs uint32
	// Flags carries Hello* capability bits.
	Flags uint32
	// The world-membership fields, meaningful for RoleRank peers
	// (zero otherwise): the identity of the world being joined — id, epoch
	// (incremented per relaunch so stragglers from a previous incarnation
	// are refused), and expected size — plus the dialer's own listener
	// address, which the registry redistributes so ranks can mesh directly.
	WorldID    uint64
	WorldEpoch uint32
	WorldSize  uint32
	PeerAddr   string
}

// Welcome is the acceptor's half: the credit grant, the highest sequence
// number already released (so a reconnecting dialer can prune its
// retransmit buffer), and the negotiated bandwidth reduction — the codec
// every subsequent data frame on this connection must use, and the extract
// the endpoint wants instead of full containers (Kind 0 ships
// containers).
type Welcome struct {
	Version  uint32
	Credits  uint32
	Released uint32
	Codec    uint8
	Extract  ExtractSpec
	// The world-membership answer for RoleRank peers: the world
	// identity echoed back and the rank the registry confirmed. Zero for
	// staging/viewer handshakes.
	WorldID    uint64
	WorldEpoch uint32
	PeerRank   uint32
}

const (
	// helloLen is the Hello's fixed prefix; the peer listener address
	// follows.
	helloLen = 4 + 1 + 4 + 4 + 4 + 4 + 4 + 4 + 8 + 4 + 4 + 2
	// welcomeLen is the Welcome's fixed prefix; the extract array name and
	// then the welcomeTail world-membership suffix follow.
	welcomeLen  = 4 + 4 + 4 + 1 + 1 + 1 + 4 + 4 + 8 + 2
	welcomeTail = 8 + 4 + 4
)

// appendHello encodes a Hello payload.
func appendHello(dst []byte, h Hello) []byte {
	var b [helloLen]byte
	le := binary.LittleEndian
	le.PutUint32(b[0:4], h.Version)
	b[4] = byte(h.Role)
	le.PutUint32(b[5:9], h.Rank)
	le.PutUint32(b[9:13], h.Writers)
	le.PutUint32(b[13:17], h.Readers)
	le.PutUint32(b[17:21], h.Depth)
	le.PutUint32(b[21:25], h.Codecs)
	le.PutUint32(b[25:29], h.Flags)
	le.PutUint64(b[29:37], h.WorldID)
	le.PutUint32(b[37:41], h.WorldEpoch)
	le.PutUint32(b[41:45], h.WorldSize)
	le.PutUint16(b[45:47], uint16(len(h.PeerAddr)))
	dst = append(dst, b[:]...)
	return append(dst, h.PeerAddr...)
}

// checkVersion reads the version both handshake payloads lead with and
// refuses any but ours, before the layout that version implies is trusted.
func checkVersion(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("fabric: handshake payload too short (%d bytes)", len(p))
	}
	if v := binary.LittleEndian.Uint32(p); v != ProtocolVersion {
		return fmt.Errorf("fabric: protocol version mismatch: peer %d, ours %d", v, ProtocolVersion)
	}
	return nil
}

// decodeHello reverses appendHello.
func decodeHello(p []byte) (Hello, error) {
	if err := checkVersion(p); err != nil {
		return Hello{}, err
	}
	if len(p) < helloLen {
		return Hello{}, fmt.Errorf("fabric: hello payload %d bytes, want >= %d", len(p), helloLen)
	}
	le := binary.LittleEndian
	addrLen := int(le.Uint16(p[45:47]))
	if len(p) != helloLen+addrLen {
		return Hello{}, fmt.Errorf("fabric: hello payload %d bytes, want %d for %d-byte peer address", len(p), helloLen+addrLen, addrLen)
	}
	return Hello{
		Version:    le.Uint32(p[0:4]),
		Role:       Role(p[4]),
		Rank:       le.Uint32(p[5:9]),
		Writers:    le.Uint32(p[9:13]),
		Readers:    le.Uint32(p[13:17]),
		Depth:      le.Uint32(p[17:21]),
		Codecs:     le.Uint32(p[21:25]),
		Flags:      le.Uint32(p[25:29]),
		WorldID:    le.Uint64(p[29:37]),
		WorldEpoch: le.Uint32(p[37:41]),
		WorldSize:  le.Uint32(p[41:45]),
		PeerAddr:   string(p[helloLen:]),
	}, nil
}

// appendWelcome encodes a Welcome payload.
func appendWelcome(dst []byte, w Welcome) []byte {
	var b [welcomeLen]byte
	le := binary.LittleEndian
	le.PutUint32(b[0:4], w.Version)
	le.PutUint32(b[4:8], w.Credits)
	le.PutUint32(b[8:12], w.Released)
	b[12] = w.Codec
	b[13] = w.Extract.Kind
	b[14] = w.Extract.Assoc
	le.PutUint32(b[15:19], w.Extract.Bins)
	le.PutUint32(b[19:23], w.Extract.Axis)
	le.PutUint64(b[23:31], math.Float64bits(w.Extract.Coord))
	le.PutUint16(b[31:33], uint16(len(w.Extract.Array)))
	dst = append(dst, b[:]...)
	dst = append(dst, w.Extract.Array...)
	var t [welcomeTail]byte
	le.PutUint64(t[0:8], w.WorldID)
	le.PutUint32(t[8:12], w.WorldEpoch)
	le.PutUint32(t[12:16], w.PeerRank)
	return append(dst, t[:]...)
}

// decodeWelcome reverses appendWelcome.
func decodeWelcome(p []byte) (Welcome, error) {
	if err := checkVersion(p); err != nil {
		return Welcome{}, err
	}
	if len(p) < welcomeLen+welcomeTail {
		return Welcome{}, fmt.Errorf("fabric: welcome payload %d bytes, want >= %d", len(p), welcomeLen+welcomeTail)
	}
	le := binary.LittleEndian
	nameLen := int(le.Uint16(p[31:33]))
	if len(p) != welcomeLen+nameLen+welcomeTail {
		return Welcome{}, fmt.Errorf("fabric: welcome payload %d bytes, want %d for %d-byte extract array", len(p), welcomeLen+nameLen+welcomeTail, nameLen)
	}
	tail := p[welcomeLen+nameLen:]
	return Welcome{
		Version:  le.Uint32(p[0:4]),
		Credits:  le.Uint32(p[4:8]),
		Released: le.Uint32(p[8:12]),
		Codec:    p[12],
		Extract: ExtractSpec{
			Kind:  p[13],
			Assoc: p[14],
			Bins:  le.Uint32(p[15:19]),
			Axis:  le.Uint32(p[19:23]),
			Coord: math.Float64frombits(le.Uint64(p[23:31])),
			Array: string(p[welcomeLen : welcomeLen+nameLen]),
		},
		WorldID:    le.Uint64(tail[0:8]),
		WorldEpoch: le.Uint32(tail[8:12]),
		PeerRank:   le.Uint32(tail[12:16]),
	}, nil
}

// handshakeTimeout bounds each half of the exchange.
const handshakeTimeout = 5 * time.Second

// DialHello sends Hello and waits for Welcome on a fresh connection — the
// dialer's half of the handshake — and returns the Session that owns the
// connection from then on, with the Welcome's codec installed. The Version
// field is filled in. On error the connection is closed.
func DialHello(c Conn, h Hello, stats *Stats) (*Session, Welcome, error) {
	s := newSession(c, stats)
	w, err := s.dial(h)
	if err != nil {
		_ = c.Close()
		return nil, Welcome{}, err
	}
	s.codec = w.Codec
	return s, w, nil
}

func (s *Session) dial(h Hello) (Welcome, error) {
	h.Version = ProtocolVersion
	if err := s.conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return Welcome{}, fmt.Errorf("fabric: handshake deadline: %w", err)
	}
	frame := AppendFrame(nil, FrameHello, 0, appendHello(nil, h))
	if _, err := s.conn.Write(frame); err != nil {
		return Welcome{}, fmt.Errorf("fabric: send hello: %w", err)
	}
	typ, _, payload, err := s.fr.Next()
	if err != nil {
		return Welcome{}, fmt.Errorf("fabric: await welcome: %w", err)
	}
	if typ != FrameWelcome {
		return Welcome{}, fmt.Errorf("fabric: expected welcome, got %s", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return Welcome{}, err
	}
	if w.Codec != CodecRaw && h.Codecs&(1<<w.Codec) == 0 {
		return Welcome{}, fmt.Errorf("fabric: endpoint chose unoffered codec %s", CodecName(w.Codec))
	}
	if err := s.conn.SetDeadline(time.Time{}); err != nil {
		return Welcome{}, fmt.Errorf("fabric: clear deadline: %w", err)
	}
	return w, nil
}

// AcceptHello reads the Hello from a freshly accepted connection and
// returns the Session that owns the connection from then on. The caller
// validates the Hello and answers with SendWelcome (or closes the session).
// On error — including a peer of another protocol version — the connection
// is closed.
func AcceptHello(c Conn, stats *Stats) (*Session, Hello, error) {
	s := newSession(c, stats)
	h, err := s.accept()
	if err != nil {
		_ = c.Close()
		return nil, Hello{}, err
	}
	return s, h, nil
}

func (s *Session) accept() (Hello, error) {
	if err := s.conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return Hello{}, fmt.Errorf("fabric: handshake deadline: %w", err)
	}
	typ, _, payload, err := s.fr.Next()
	if err != nil {
		return Hello{}, fmt.Errorf("fabric: await hello: %w", err)
	}
	if typ != FrameHello {
		return Hello{}, fmt.Errorf("fabric: expected hello, got %s", typ)
	}
	return decodeHello(payload)
}

// SendWelcome completes the acceptor's half of the handshake, installs the
// codec it names, and clears the handshake deadline. The Version field is
// filled in. The Welcome is the first frame the dialer sees because nobody
// else can write yet: an owner shares the session with other goroutines only
// after SendWelcome returns. On error the session is closed.
func (s *Session) SendWelcome(w Welcome) error {
	w.Version = ProtocolVersion
	frame := AppendFrame(nil, FrameWelcome, 0, appendWelcome(nil, w))
	_, err := s.conn.Write(frame)
	if err == nil {
		err = s.conn.SetDeadline(time.Time{})
	}
	if err != nil {
		_ = s.Close()
		return fmt.Errorf("fabric: send welcome: %w", err)
	}
	s.codec = w.Codec
	return nil
}
