package fabric

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
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
//   - CodecDelta: the plane codec. One pass over the payload as 64-bit
//     words subtracts the previous step's word (float64 bit patterns of a
//     smooth field move by small integers), zigzags the difference so either
//     sign leaves its high bytes zero, and scatters the eight bytes into
//     eight planes. The planes DEFLATE can shrink (the sign/exponent and top
//     mantissa planes) go through it as one stream; the ones that are noise
//     to it (the low mantissa planes: 8.00 bits per byte on the oscillator
//     field) ship raw, decided per plane and per frame by compressible.
//     Stateful: the first frame of a connection — and the first retransmit
//     after a reconnect — is a keyframe, a residual against zeros, because
//     the previous-step reference dies with the connection (an endpoint
//     restart loses its decoder state).
//
// A CodecDelta body is
//
//	uint32  n, the plain payload's length; g = n/8 words
//	uint8   mask, bit j set when plane j is in the DEFLATE stream
//	n%8     the bytes past the last word, verbatim
//	g each  the planes the mask leaves out, ascending, raw
//	rest    the stream: the planes the mask names, ascending, back to back
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

// zigzag folds a two's-complement difference so that small magnitudes of
// either sign have zero high bytes; unzigzag inverts it.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// scatter is the encoder's one pass: for each 64-bit word of cur it writes
// byte j of the zigzagged difference against ref into planes[j*g+i] and
// leaves cur's word in ref. len(planes) is 8*g; ref and cur hold at least
// that much.
func scatter(planes, ref, cur []byte) {
	g := len(planes) / 8
	p0, p1, p2, p3 := planes[:g], planes[g:2*g], planes[2*g:3*g], planes[3*g:4*g]
	p4, p5, p6, p7 := planes[4*g:5*g], planes[5*g:6*g], planes[6*g:7*g], planes[7*g:8*g]
	le := binary.LittleEndian
	for i := range p0 {
		c := le.Uint64(cur[8*i:])
		z := zigzag(c - le.Uint64(ref[8*i:]))
		le.PutUint64(ref[8*i:], c)
		p0[i], p1[i], p2[i], p3[i] = byte(z), byte(z>>8), byte(z>>16), byte(z>>24)
		p4[i], p5[i], p6[i], p7[i] = byte(z>>32), byte(z>>40), byte(z>>48), byte(z>>56)
	}
}

// gather inverts scatter in place: ref's words advance by the differences
// the eight planes (each g bytes) spell.
func gather(ref []byte, planes *[8][]byte) {
	p0, p1, p2, p3 := planes[0], planes[1], planes[2], planes[3]
	p4, p5, p6, p7 := planes[4], planes[5], planes[6], planes[7]
	le := binary.LittleEndian
	for i := range p0 {
		z := uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
			uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56
		le.PutUint64(ref[8*i:], le.Uint64(ref[8*i:])+unzigzag(z))
	}
}

// sized returns b with length n and unspecified contents, trading it for a
// buffer from p when it is too small.
func sized(p *BufPool, b []byte, n int) []byte {
	if cap(b) < n {
		p.Put(b)
		b = p.Get(n)
	}
	return b[:n]
}

// appendWriter is the flate sink: an append-only slice. Write never fails.
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
	bufs    *BufPool // where ref and planes come from and go back to
	ref     []byte   // previous step's plain payload (CodecDelta)
	planes  []byte   // the residual's eight byte planes, back to back
	out     appendWriter
	fw      *flate.Writer
	started bool
}

// newCodecEncoder builds the state for one connection epoch, borrowing its
// buffers from bufs (nil: allocate); id CodecRaw returns nil (no transform,
// no state).
func newCodecEncoder(id uint8, bufs *BufPool) *codecEncoder {
	if id == CodecRaw {
		return nil
	}
	e := &codecEncoder{id: id, bufs: bufs}
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
	e.bufs.Put(e.ref)
	e.bufs.Put(e.planes)
	e.ref, e.planes = nil, nil
}

// deflate appends to dst the DEFLATE stream of srcs, back to back.
func (e *codecEncoder) deflate(dst []byte, srcs ...[]byte) ([]byte, error) {
	e.out.b = dst
	e.fw.Reset(&e.out)
	for _, src := range srcs {
		if _, err := e.fw.Write(src); err != nil {
			return dst, fmt.Errorf("fabric: codec compress: %w", err)
		}
	}
	if err := e.fw.Close(); err != nil {
		return dst, fmt.Errorf("fabric: codec flush: %w", err)
	}
	dst, e.out.b = e.out.b, nil
	return dst, nil
}

// compressible estimates whether DEFLATE would shrink a plane, from four
// sampleRun-byte runs spread over it (all of a short plane). DEFLATE's
// Huffman half gains when byte values are skewed: two bytes of the sample
// agree over four times as often as uniform bytes would. Its LZ77 half gains
// when sequences recur, which a flat histogram hides (a field mirrored about
// an axis repeats its rows): over an eighth of the sample's 4-byte windows
// were seen before. Noise planes fail both and ship raw.
func compressible(plane []byte) bool {
	if len(plane) < sampleRun {
		return true // no time to save, and stored blocks bound what DEFLATE can lose
	}
	var hist [256]uint32
	var seen [1 << 10]uint32 // the last 4-byte window to hash to each slot
	n, recur := uint64(0), uint64(0)
	for at := 0; at < len(plane); at += max(len(plane)/4, sampleRun) {
		run := plane[at:min(at+sampleRun, len(plane))]
		for i, b := range run {
			hist[b]++
			if i+4 <= len(run) {
				w := binary.LittleEndian.Uint32(run[i:])
				if slot := &seen[w*2654435761>>22]; *slot == w {
					recur++
				} else {
					*slot = w
				}
			}
		}
		n += uint64(len(run))
	}
	var pairs uint64 // ordered pairs of distinct sample bytes that agree
	for _, c := range hist {
		pairs += uint64(c) * uint64(c-1)
	}
	return pairs*64 > n*(n-1) || recur*8 > n
}

// sampleRun is the length of one sampled run: long enough to hold the
// repeats of a field's rows.
const sampleRun = 1 << 10

// encode appends one step payload's coded body to dst and reports whether
// the frame is a keyframe (self-contained, delta chain reset).
func (e *codecEncoder) encode(dst, payload []byte) (body []byte, keyframe bool, err error) {
	if e.id == CodecFlate {
		dst, err = e.deflate(dst, payload)
		return dst, true, err
	}
	n := len(payload)
	g := n / 8
	if keyframe = !e.started || len(e.ref) != n; keyframe {
		// Both are asked for n bytes, like every other step-sized buffer in
		// the pool, so whichever comes back fits whoever asks next.
		e.ref, e.planes, e.started = sized(e.bufs, e.ref, n), sized(e.bufs, e.planes, n)[:8*g], true
		clear(e.ref)
	}
	scatter(e.planes, e.ref, payload)
	copy(e.ref[8*g:], payload[8*g:])

	dst = append(binary.LittleEndian.AppendUint32(dst, uint32(n)), 0)
	mask := len(dst) - 1
	dst = append(dst, payload[8*g:]...)
	var coded [8][]byte
	k := 0
	for j := 0; j < 8; j++ {
		if plane := e.planes[j*g : (j+1)*g]; compressible(plane) {
			dst[mask] |= 1 << j
			coded[k], k = plane, k+1
		} else {
			dst = append(dst, plane...)
		}
	}
	if k > 0 {
		dst, err = e.deflate(dst, coded[:k]...)
	}
	return dst, keyframe, err
}

// codecDecoder is the endpoint-side per-connection codec state.
type codecDecoder struct {
	id   uint8
	max  int      // plain payload bound (ErrCodecTooLarge past it)
	bufs *BufPool // where ref comes from and ref and infl go back to
	ref  []byte   // previous step's plain payload (CodecDelta): what decode returns
	infl []byte   // inflate output: the payload (CodecFlate) or the stream's planes
	br   *bytes.Reader
	fr   io.ReadCloser
}

// newCodecDecoder builds the state for one accepted connection, borrowing
// its reference from bufs (nil: allocate); id CodecRaw returns nil. max
// bounds the decoded payload (<= 0 selects MaxPayload).
func newCodecDecoder(id uint8, max int, bufs *BufPool) *codecDecoder {
	if id == CodecRaw {
		return nil
	}
	if max <= 0 {
		max = MaxPayload
	}
	d := &codecDecoder{id: id, max: max, bufs: bufs, br: bytes.NewReader(nil)}
	d.fr = flate.NewReader(d.br)
	return d
}

// close returns the decoder's buffers to the pool.
func (d *codecDecoder) close() {
	if d == nil {
		return
	}
	d.bufs.Put(d.ref)
	d.bufs.Put(d.infl)
	d.ref, d.infl = nil, nil
}

// inflate appends src's inflated bytes to d.infl and returns how many there
// were, reading no further than limit+1 so the caller can tell too many from
// enough. The buffer grows only as inflated bytes actually materialize,
// never from a length the (attacker-controlled) body claims.
func (d *codecDecoder) inflate(src []byte, limit int) (int, error) {
	d.br.Reset(src)
	if err := d.fr.(flate.Resetter).Reset(d.br, nil); err != nil {
		return 0, fmt.Errorf("fabric: codec reset: %w", err)
	}
	base := len(d.infl)
	for {
		got := len(d.infl) - base
		if got > limit {
			return got, nil
		}
		if len(d.infl) == cap(d.infl) {
			step := min(max(cap(d.infl), 4<<10), growStep, limit+1-got)
			d.infl = append(d.infl, make([]byte, step)...)[:len(d.infl)]
		}
		n, err := d.fr.Read(d.infl[len(d.infl):min(cap(d.infl), base+limit+1)])
		d.infl = d.infl[:len(d.infl)+n]
		if err == io.EOF {
			return got + n, nil
		}
		if err != nil {
			return 0, fmt.Errorf("fabric: codec inflate: %w", err)
		}
	}
}

// decode reverses encode for one frame. Corrupt bodies, chain breaks
// (non-keyframe without a matching reference) and payloads past the bound
// all return errors, and the reference is touched only once the whole body
// has checked out — by which point every byte of the claimed length has
// been seen, raw in the body or inflated. The returned slice is valid until
// the next decode.
func (d *codecDecoder) decode(body []byte, keyframe bool) ([]byte, error) {
	d.infl = d.infl[:0]
	if d.id == CodecFlate {
		if n, err := d.inflate(body, d.max); err != nil {
			return nil, err
		} else if n > d.max {
			return nil, fmt.Errorf("%w: > %d bytes", ErrCodecTooLarge, d.max)
		}
		return d.infl, nil
	}

	if len(body) < 5 {
		return nil, fmt.Errorf("fabric: delta body of %d bytes has no header", len(body))
	}
	le := binary.LittleEndian
	n, mask, body := int(le.Uint32(body)), body[4], body[5:]
	if n > d.max {
		return nil, fmt.Errorf("%w: claims %d > %d bytes", ErrCodecTooLarge, n, d.max)
	}
	if !keyframe && len(d.ref) != n {
		return nil, fmt.Errorf("%w: have %d-byte reference, frame is %d bytes", ErrCodecChain, len(d.ref), n)
	}
	g := n / 8
	if len(body) < n%8 {
		return nil, fmt.Errorf("fabric: delta body ends %d bytes into its header", 5+len(body))
	}
	tail, body := body[:n%8], body[n%8:]
	var planes [8][]byte
	k := 0 // planes in the stream
	for j := range planes {
		if mask&(1<<j) != 0 {
			k++
		} else if len(body) < g {
			return nil, fmt.Errorf("fabric: delta plane %d: %d bytes left, want %d", j, len(body), g)
		} else {
			planes[j], body = body[:g], body[g:]
		}
	}
	if k == 0 && len(body) > 0 {
		return nil, fmt.Errorf("fabric: delta body has %d bytes past its planes", len(body))
	}
	if k > 0 {
		if got, err := d.inflate(body, k*g); err != nil {
			return nil, err
		} else if got != k*g {
			return nil, fmt.Errorf("fabric: delta stream inflates to %d bytes, its %d planes hold %d", got, k, k*g)
		}
		for j, at := 0, 0; j < 8; j++ {
			if mask&(1<<j) != 0 {
				planes[j], at = d.infl[at:at+g], at+g
			}
		}
	}
	if keyframe {
		d.ref = sized(d.bufs, d.ref, n)
		clear(d.ref)
	}
	gather(d.ref, &planes)
	copy(d.ref[8*g:], tail)
	return d.ref, nil
}
