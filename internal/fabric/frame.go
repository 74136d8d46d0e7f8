package fabric

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Wire frame layout (all little-endian):
//
//	offset 0  uint32  payload length
//	offset 4  uint8   frame type
//	offset 5  uint32  sequence number
//	offset 9  uint32  CRC-32 (IEEE) over type, sequence, and payload
//	offset 13 payload
//
// The CRC covers everything after the length so a flipped bit anywhere in
// the frame body is detected; the length itself is validated by bounds
// (MaxPayload) before any allocation, so a corrupt length cannot make the
// reader over-allocate.
const (
	frameHeaderSize = 13

	// MaxPayload bounds a single frame. A staged step for the largest
	// configurations in the paper's scaling study is tens of MB; 256 MiB
	// leaves headroom without letting a corrupt length exhaust memory.
	MaxPayload = 256 << 20
)

// FrameType discriminates the staging protocol's messages.
type FrameType uint8

// The protocol's frame types. Hello/Welcome open a connection; Data/EOS
// carry the stream (and consume credits); Advance publishes step metadata;
// Release returns credits; Steer carries viewer steering; Heartbeat pairs
// bound failure detection and measure RTT.
const (
	FrameHello FrameType = 1 + iota
	FrameWelcome
	FrameData
	FrameEOS
	FrameAdvance
	FrameAdvanceAck
	FrameRelease
	FrameSteer
	FrameHeartbeat
	FrameHeartbeatAck
	// FrameEnvelope carries one mpi point-to-point message between ranks of
	// a cross-process world (internal/world); the payload is an
	// mpi.Envelope.
	FrameEnvelope
	// FrameWorldInfo is the registry's address book: after every rank of a
	// world has registered, each receives the full rank -> listener-address
	// table and meshes up directly.
	FrameWorldInfo

	frameTypeMax = FrameWorldInfo
)

// String implements fmt.Stringer for diagnostics.
func (t FrameType) String() string {
	names := [...]string{"invalid", "hello", "welcome", "data", "eos", "advance",
		"advance-ack", "release", "steer", "heartbeat", "heartbeat-ack",
		"envelope", "world-info"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Frame decode errors, distinguishable by errors.Is.
var (
	ErrFrameTooLarge = errors.New("fabric: frame exceeds payload limit")
	ErrFrameChecksum = errors.New("fabric: frame checksum mismatch")
	ErrFrameType     = errors.New("fabric: invalid frame type")
)

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. The destination buffer is reusable across frames (dst[:0]), which
// keeps the per-frame send path allocation-free once the scratch buffer has
// grown to the working payload size.
func AppendFrame(dst []byte, typ FrameType, seq uint32, payload []byte) []byte {
	le := binary.LittleEndian
	var hdr [frameHeaderSize]byte
	le.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = byte(typ)
	le.PutUint32(hdr[5:9], seq)
	crc := crc32.ChecksumIEEE(hdr[4:9])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	le.PutUint32(hdr[9:13], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FrameOverhead is the framing cost prepended to every payload: the
// length/type/seq/CRC header SealFrame fills in.
const FrameOverhead = frameHeaderSize

// SealFrame writes the frame header for a payload built in place. The
// caller reserves FrameOverhead bytes at the front of buf, appends the
// payload after them, and seals once — the zero-copy alternative to
// AppendFrame for fan-out paths that encode one immutable frame and write
// it to many connections. buf[FrameOverhead:] is the payload; the sealed
// buf is exactly what AppendFrame(nil, typ, seq, payload) would produce.
func SealFrame(buf []byte, typ FrameType, seq uint32) {
	if len(buf) < frameHeaderSize {
		panic("fabric: SealFrame buffer smaller than the reserved header")
	}
	le := binary.LittleEndian
	payload := buf[frameHeaderSize:]
	le.PutUint32(buf[0:4], uint32(len(payload)))
	buf[4] = byte(typ)
	le.PutUint32(buf[5:9], seq)
	crc := crc32.ChecksumIEEE(buf[4:9])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	le.PutUint32(buf[9:13], crc)
}

// FrameReader decodes frames from a byte stream, reusing one payload
// buffer across calls. It never allocates more than maxPayload bytes and
// never trusts the claimed length further than the bytes that actually
// arrive: the payload buffer grows in bounded steps as data is read, so a
// truncated stream with a huge claimed length cannot balloon memory.
//
// Its read-ahead is readAhead bytes, sized for headers: it batches the
// 13-byte frame headers and the frames smaller than itself into few reads.
// A larger payload copies at most what is already buffered; once that is
// drained, each read at least the read-ahead's size goes straight to the
// connection (bufio.Reader.Read does not buffer such a read) and lands in
// the payload buffer. A larger read-ahead would only cost every session
// its size.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	max int
	hdr [frameHeaderSize]byte // Next's: a local escapes through io.ReadFull, one allocation per frame
}

// NewFrameReader wraps r. maxPayload <= 0 selects MaxPayload.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = MaxPayload
	}
	return &FrameReader{r: bufio.NewReaderSize(r, readAhead), max: maxPayload}
}

// readAhead is the FrameReader's buffer size (see FrameReader).
const readAhead = 4 << 10

// growStep bounds each payload-buffer growth increment.
const growStep = 1 << 20

// Next reads one frame. The returned payload slice is valid only until the
// following Next call. Truncation yields io.ErrUnexpectedEOF (or io.EOF at
// a clean frame boundary); corruption yields ErrFrameChecksum,
// ErrFrameTooLarge, or ErrFrameType.
func (f *FrameReader) Next() (FrameType, uint32, []byte, error) {
	hdr := f.hdr[:]
	if _, err := io.ReadFull(f.r, hdr[0:1]); err != nil {
		return 0, 0, nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(f.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	le := binary.LittleEndian
	length := int(le.Uint32(hdr[0:4]))
	typ := FrameType(hdr[4])
	seq := le.Uint32(hdr[5:9])
	wantCRC := le.Uint32(hdr[9:13])
	if typ == 0 || typ > frameTypeMax {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrFrameType, hdr[4])
	}
	if length > f.max {
		return 0, 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, length, f.max)
	}
	// Read the payload in bounded increments, growing the reusable buffer
	// only as bytes actually arrive.
	read := 0
	for read < length {
		n := length - read
		if n > growStep {
			n = growStep
		}
		if read+n > len(f.buf) {
			if read+n <= cap(f.buf) {
				f.buf = f.buf[:read+n]
			} else {
				grown := make([]byte, read+n)
				copy(grown, f.buf[:read])
				f.buf = grown
			}
		}
		if _, err := io.ReadFull(f.r, f.buf[read:read+n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
		read += n
	}
	payload := f.buf[:length]
	crc := crc32.ChecksumIEEE(hdr[4:9])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != wantCRC {
		return 0, 0, nil, fmt.Errorf("%w: %s frame seq %d", ErrFrameChecksum, typ, seq)
	}
	return typ, seq, payload, nil
}

// Control-payload codecs. These are the staging control messages the frame
// types carry; all fixed-width fields are little-endian.

// AppendStepPayload prefixes a staged BP container with its step number —
// the FrameData payload layout.
func AppendStepPayload(dst []byte, step int, container []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(int64(step)))
	dst = append(dst, hdr[:]...)
	return append(dst, container...)
}

// SplitStepPayload reverses AppendStepPayload. The returned container
// aliases p.
func SplitStepPayload(p []byte) (step int, container []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("fabric: data payload too short (%d bytes)", len(p))
	}
	return int(int64(binary.LittleEndian.Uint64(p[:8]))), p[8:], nil
}

// Coded data payloads. When the handshake negotiates a codec other than
// raw, every FrameData payload switches from the plain step+container
// layout to step(8) + codec ID(1) + flags(1) + coded body, so a decoder can
// verify it is applying the negotiated transform and knows whether the
// frame is a keyframe (self-contained) or a delta against the previous
// step.
const (
	codedStepHeader = 10
	// codedKeyframe marks a frame that decodes without a previous-step
	// reference — the delta-chain reset a reconnect replays with.
	codedKeyframe uint8 = 1 << 0
)

// AppendCodedStepPayload builds a coded FrameData payload.
func AppendCodedStepPayload(dst []byte, step int, codec uint8, keyframe bool, body []byte) []byte {
	var hdr [codedStepHeader]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(int64(step)))
	hdr[8] = codec
	if keyframe {
		hdr[9] = codedKeyframe
	}
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// SplitCodedStepPayload reverses AppendCodedStepPayload. The returned body
// aliases p.
func SplitCodedStepPayload(p []byte) (step int, codec uint8, keyframe bool, body []byte, err error) {
	if len(p) < codedStepHeader {
		return 0, 0, false, nil, fmt.Errorf("fabric: coded data payload too short (%d bytes)", len(p))
	}
	return int(int64(binary.LittleEndian.Uint64(p[:8]))), p[8], p[9]&codedKeyframe != 0, p[codedStepHeader:], nil
}

// AppendSteerPayload encodes a steering command — the FrameSteer payload.
func AppendSteerPayload(dst []byte, name string, value float64) []byte {
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(name)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, name...)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], math.Float64bits(value))
	return append(dst, v[:]...)
}

// DecodeSteerPayload reverses AppendSteerPayload.
func DecodeSteerPayload(p []byte) (name string, value float64, err error) {
	if len(p) < 2 {
		return "", 0, fmt.Errorf("fabric: steer payload too short (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[:2]))
	if len(p) != 2+n+8 {
		return "", 0, fmt.Errorf("fabric: steer payload length %d, want %d", len(p), 2+n+8)
	}
	return string(p[2 : 2+n]), math.Float64frombits(binary.LittleEndian.Uint64(p[2+n:])), nil
}
