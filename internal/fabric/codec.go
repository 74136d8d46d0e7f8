package fabric

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
)

// Wire codecs. A codec transforms each staged step payload before it is
// framed, trading writer/endpoint CPU for bytes on the wire — the
// bandwidth-limiting knob the Catalyst-ADIOS2 hybrid work applies during in
// transit analysis. The codec is negotiated per connection in the
// Hello/Welcome handshake (the endpoint picks from the writer's advertised
// set) and applies to FrameData payloads only; control frames are tiny and
// stay raw.
//
//   - CodecRaw: identity.
//   - CodecFlate: stdlib DEFLATE over the payload. Stateless per frame.
//   - CodecDelta: XOR against the previous step's payload (bit-level deltas
//     of float64 fields evolve slowly for smooth data), then a byte-shuffle
//     transpose with stride 8 (grouping the exponent/mantissa byte planes of
//     consecutive float64s, which turns near-zero XOR residue into long zero
//     runs), then DEFLATE. Stateful: the first frame of a connection — and
//     the first retransmit after a reconnect — is a keyframe encoding the
//     full payload, because the previous-step reference dies with the
//     connection (an endpoint restart loses its decoder state).
const (
	CodecRaw uint8 = iota
	CodecFlate
	CodecDelta

	codecMax = CodecDelta
)

// AllCodecs is the capability mask a current-version peer advertises.
const AllCodecs uint32 = 1<<CodecRaw | 1<<CodecFlate | 1<<CodecDelta

// Codec decode errors, distinguishable by errors.Is.
var (
	ErrCodecTooLarge = errors.New("fabric: coded payload inflates past limit")
	ErrCodecChain    = errors.New("fabric: delta frame without matching reference")
	ErrCodecUnknown  = errors.New("fabric: unknown codec")
)

// CodecName renders a codec ID for flags and reports.
func CodecName(id uint8) string {
	switch id {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	case CodecDelta:
		return "delta"
	}
	return fmt.Sprintf("codec(%d)", id)
}

// ParseCodec reverses CodecName for CLI flags.
func ParseCodec(name string) (uint8, error) {
	switch name {
	case "raw":
		return CodecRaw, nil
	case "flate":
		return CodecFlate, nil
	case "delta":
		return CodecDelta, nil
	}
	return 0, fmt.Errorf("%w %q (want raw|flate|delta)", ErrCodecUnknown, name)
}

// chooseCodec picks the first endpoint preference the writer's advertised
// mask supports; raw is the universal fallback.
func chooseCodec(pref []uint8, offered uint32) uint8 {
	for _, id := range pref {
		if id <= codecMax && offered&(1<<id) != 0 {
			return id
		}
	}
	return CodecRaw
}

// shuffle8 writes the stride-8 byte transpose of src into dst[:len(src)]:
// byte j of float64 i lands in plane j. The tail (len % 8) is copied
// verbatim. dst must not alias src.
func shuffle8(dst, src []byte) {
	n := len(src) &^ 7
	g := n / 8
	for i := 0; i < g; i++ {
		b := src[i*8 : i*8+8]
		dst[i] = b[0]
		dst[g+i] = b[1]
		dst[2*g+i] = b[2]
		dst[3*g+i] = b[3]
		dst[4*g+i] = b[4]
		dst[5*g+i] = b[5]
		dst[6*g+i] = b[6]
		dst[7*g+i] = b[7]
	}
	copy(dst[n:], src[n:])
}

// unshuffle8 inverts shuffle8.
func unshuffle8(dst, src []byte) {
	n := len(src) &^ 7
	g := n / 8
	for i := 0; i < g; i++ {
		b := dst[i*8 : i*8+8]
		b[0] = src[i]
		b[1] = src[g+i]
		b[2] = src[2*g+i]
		b[3] = src[3*g+i]
		b[4] = src[4*g+i]
		b[5] = src[5*g+i]
		b[6] = src[6*g+i]
		b[7] = src[7*g+i]
	}
	copy(dst[n:], src[n:])
}

// appendWriter is the flate sink: an append-only slice the pooled buffers
// back. Write never fails.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// codecEncoder is the writer-side per-connection codec state. Not safe for
// concurrent use; the Session encodes under its write lock, which also pins
// chain order to wire order.
type codecEncoder struct {
	id      uint8
	prev    []byte // previous step's plain payload (CodecDelta)
	work    []byte // xor + shuffle staging
	out     appendWriter
	fw      *flate.Writer
	started bool
}

// newCodecEncoder builds the state for one connection epoch; id CodecRaw
// returns nil (no transform, no state).
func newCodecEncoder(id uint8) *codecEncoder {
	if id == CodecRaw {
		return nil
	}
	e := &codecEncoder{id: id}
	e.prev = payloadBufs.Get(0)
	e.work = payloadBufs.Get(0)
	e.out.b = payloadBufs.Get(0)
	fw, err := flate.NewWriter(&e.out, flate.BestSpeed)
	if err != nil {
		panic(fmt.Sprintf("fabric: flate.NewWriter(BestSpeed): %v", err)) // impossible: valid level
	}
	e.fw = fw
	return e
}

// close returns the encoder's buffers to the pool. The encoder must not be
// used afterwards.
func (e *codecEncoder) close() {
	if e == nil {
		return
	}
	payloadBufs.Put(e.prev)
	payloadBufs.Put(e.work)
	payloadBufs.Put(e.out.b)
	e.prev, e.work, e.out.b = nil, nil, nil
}

// encode transforms one step payload, returning the coded body and whether
// this frame is a keyframe (full payload, delta chain reset). The returned
// slice is valid until the next encode.
func (e *codecEncoder) encode(payload []byte) (body []byte, keyframe bool, err error) {
	if cap(e.work) < len(payload) {
		e.work = append(e.work[:0], make([]byte, len(payload))...)
	}
	e.work = e.work[:len(payload)]

	src := payload
	keyframe = true
	if e.id == CodecDelta {
		if e.started && len(e.prev) == len(payload) {
			keyframe = false
			for i := range payload {
				e.work[i] = payload[i] ^ e.prev[i]
			}
			src = e.work
		}
		e.prev = append(e.prev[:0], payload...)
		e.started = true

		// Shuffle in place is impossible (transpose), so stage through work
		// when the XOR already lives there.
		if &src[0] == &e.work[0] && len(src) > 0 {
			// XOR residue is in work; shuffle into a second region appended
			// past it so neither aliases.
			need := 2 * len(payload)
			if cap(e.work) < need {
				grown := payloadBufs.Get(need)
				grown = append(grown, e.work...)
				payloadBufs.Put(e.work)
				e.work = grown
			}
			e.work = e.work[:need]
			shuffle8(e.work[len(payload):], e.work[:len(payload)])
			src = e.work[len(payload):]
		} else if len(src) > 0 {
			shuffle8(e.work, src)
			src = e.work[:len(payload)]
		}
	}

	e.out.b = e.out.b[:0]
	e.fw.Reset(&e.out)
	if _, err := e.fw.Write(src); err != nil {
		return nil, false, fmt.Errorf("fabric: codec compress: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return nil, false, fmt.Errorf("fabric: codec flush: %w", err)
	}
	return e.out.b, keyframe, nil
}

// codecDecoder is the endpoint-side per-connection codec state.
type codecDecoder struct {
	id   uint8
	max  int // plain payload bound (ErrCodecTooLarge past it)
	prev []byte
	infl []byte // inflate output (shuffled bytes)
	out  []byte // unshuffled plain payload
	br   *bytes.Reader
	fr   io.ReadCloser
}

// newCodecDecoder builds the state for one accepted connection; id CodecRaw
// returns nil. max bounds the decoded payload (<= 0 selects MaxPayload).
func newCodecDecoder(id uint8, max int) *codecDecoder {
	if id == CodecRaw {
		return nil
	}
	if max <= 0 {
		max = MaxPayload
	}
	d := &codecDecoder{id: id, max: max, br: bytes.NewReader(nil)}
	d.prev = payloadBufs.Get(0)
	d.infl = payloadBufs.Get(0)
	d.out = payloadBufs.Get(0)
	d.fr = flate.NewReader(d.br)
	return d
}

// close returns the decoder's buffers to the pool.
func (d *codecDecoder) close() {
	if d == nil {
		return
	}
	payloadBufs.Put(d.prev)
	payloadBufs.Put(d.infl)
	payloadBufs.Put(d.out)
	d.prev, d.infl, d.out = nil, nil, nil
}

// decode reverses encode for one frame. Corrupt bodies, chain breaks
// (non-keyframe without a matching reference), and payloads inflating past
// the bound all return errors without over-allocating: the inflate buffer
// grows only as decompressed bytes actually materialize, never from any
// length claimed by the (attacker-controlled) body. The returned slice is
// valid until the next decode.
func (d *codecDecoder) decode(body []byte, keyframe bool) ([]byte, error) {
	d.br.Reset(body)
	if err := d.fr.(flate.Resetter).Reset(d.br, nil); err != nil {
		return nil, fmt.Errorf("fabric: codec reset: %w", err)
	}
	d.infl = d.infl[:0]
	for {
		if len(d.infl) == cap(d.infl) {
			step := cap(d.infl)
			if step < 4<<10 {
				step = 4 << 10
			}
			if step > growStep {
				step = growStep
			}
			if len(d.infl)+step > d.max+1 {
				step = d.max + 1 - len(d.infl)
			}
			d.infl = append(d.infl, make([]byte, step)...)[:len(d.infl)]
		}
		n, err := d.fr.Read(d.infl[len(d.infl):cap(d.infl)])
		d.infl = d.infl[:len(d.infl)+n]
		if len(d.infl) > d.max {
			return nil, fmt.Errorf("%w: > %d bytes", ErrCodecTooLarge, d.max)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fabric: codec inflate: %w", err)
		}
	}

	if d.id == CodecFlate {
		return d.infl, nil
	}

	// CodecDelta: unshuffle, then XOR against the reference for non-keyframes.
	if cap(d.out) < len(d.infl) {
		d.out = append(d.out[:0], make([]byte, len(d.infl))...)
	}
	d.out = d.out[:len(d.infl)]
	unshuffle8(d.out, d.infl)
	if !keyframe {
		if len(d.prev) != len(d.out) {
			return nil, fmt.Errorf("%w: have %d-byte reference, frame is %d bytes", ErrCodecChain, len(d.prev), len(d.out))
		}
		for i := range d.out {
			d.out[i] ^= d.prev[i]
		}
	}
	d.prev = append(d.prev[:0], d.out...)
	return d.out, nil
}
