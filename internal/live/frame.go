package live

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"gosensei/internal/fabric"
)

// frame payload layout (little-endian): uint64 step, uint32 width,
// uint32 height, then the PNG bytes.
const framePayloadHeader = 8 + 4 + 4

// appendFramePayload encodes one published frame for the wire.
func appendFramePayload(dst []byte, f Frame) []byte {
	var hdr [framePayloadHeader]byte
	le := binary.LittleEndian
	le.PutUint64(hdr[0:8], uint64(int64(f.Step)))
	le.PutUint32(hdr[8:12], uint32(f.Width))
	le.PutUint32(hdr[12:16], uint32(f.Height))
	dst = append(dst, hdr[:]...)
	return append(dst, f.PNG...)
}

// decodeFramePayload reverses appendFramePayload into dst, copying the PNG
// bytes out of the wire buffer (which the caller's FrameReader will reuse)
// into dst's own PNG buffer, so a recycled frame allocates only when its
// buffer must grow. On error dst is left as it was.
func decodeFramePayload(dst *Frame, p []byte) error {
	if len(p) < framePayloadHeader {
		return fmt.Errorf("live: frame payload too short (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	dst.Step = int(int64(le.Uint64(p[0:8])))
	dst.Width = int(le.Uint32(p[8:12]))
	dst.Height = int(le.Uint32(p[12:16]))
	dst.PNG = append(dst.PNG[:0], p[framePayloadHeader:]...)
	return nil
}

// FrameRef is one published frame as an immutable refcounted buffer — the
// zero-copy currency of the fan-out path. Publish encodes the frame into a
// pooled buffer exactly once: a complete fabric wire frame (FrameData,
// seq = the hub epoch) whose payload is the framePayloadHeader + PNG
// layout. Every consumer then shares the same bytes: a wire pusher writes
// Wire() straight to its connection, an in-process viewer reads PNG() in
// place, and nobody copies per viewer.
//
// Ownership: each holder owns one reference. Retain adds one, Release
// drops one; when the count reaches zero the buffer returns to the pool
// and MUST NOT be touched again (the same give-away contract as
// fabric.BufPool.Put). All accessors are valid only while a reference is
// held.
type FrameRef struct {
	refs  atomic.Int32
	buf   []byte // sealed wire frame: fabric header + payload
	step  int
	epoch uint64
}

// frameRefPool recycles FrameRef objects with their backing buffers, so a
// steady-state publish loop allocates nothing: the buffer a released frame
// carries is exactly the size the next frame of the same stream needs.
var frameRefPool = sync.Pool{New: func() any { return new(FrameRef) }}

// newFrameRef encodes f once into a pooled buffer and returns it with one
// reference (owned by the caller). epoch becomes the wire sequence number.
func newFrameRef(f Frame, epoch uint64) *FrameRef {
	r := frameRefPool.Get().(*FrameRef)
	buf := r.buf[:0]
	var reserve [fabric.FrameOverhead]byte
	buf = append(buf, reserve[:]...)
	buf = appendFramePayload(buf, f)
	fabric.SealFrame(buf, fabric.FrameData, uint32(epoch))
	r.buf = buf
	r.step = f.Step
	r.epoch = epoch
	r.refs.Store(1)
	return r
}

// Step returns the simulation step the frame renders.
func (r *FrameRef) Step() int { return r.step }

// Epoch returns the hub publish epoch (also the wire sequence number).
func (r *FrameRef) Epoch() uint64 { return r.epoch }

// PNG returns the encoded image bytes, aliasing the shared buffer: valid
// only while the caller holds a reference, and never to be mutated.
func (r *FrameRef) PNG() []byte { return r.buf[fabric.FrameOverhead+framePayloadHeader:] }

// Wire returns the complete sealed fabric frame, ready for conn.Write —
// the same bytes for every viewer. Valid only while a reference is held.
func (r *FrameRef) Wire() []byte { return r.buf }

// Retain adds a reference on behalf of a new holder.
func (r *FrameRef) Retain() { r.refs.Add(1) }

// Release drops the caller's reference; the last release recycles the
// buffer. Safe on nil.
func (r *FrameRef) Release() {
	if r == nil {
		return
	}
	n := r.refs.Add(-1)
	if n == 0 {
		frameRefPool.Put(r)
	} else if n < 0 {
		panic("live: FrameRef over-released")
	}
}
