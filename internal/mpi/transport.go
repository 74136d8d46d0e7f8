// Transport: the seam that lets a Comm span OS processes.
//
// The in-process runtime delivers a message by appending it to the
// destination rank's mailbox — a function call. A distributed world replaces
// that function call with a wire hop: the sending rank serializes the
// message into an Envelope, hands it to the world's Transport, and the
// receiving process calls World.Deliver to append it to the (single) mailbox
// it hosts. Everything above this seam — tag matching, collectives, fault
// injection, traffic odometers — is unchanged, which is the point: the
// binomial/ring/Rabenseifner algorithms in collectives.go run their real
// communication schedules across TCP without knowing it.
//
// The fast path stays fast: an in-process world has a nil Transport, and the
// send path tests one pointer before taking the exact pre-transport route.
//
// Payload encoding is by element type: pointer-free ("POD") element types —
// every numeric type and structs/arrays thereof, which covers all hot-path
// traffic — are shipped as their raw in-memory bytes; anything with pointers
// (strings, nested slices) falls back to encoding/gob. Raw bytes are only
// exchanged between ranks of one world, which a launcher builds from the
// same executable on the same machine, so layout and endianness agree by
// construction; the element type name travels in the envelope and is checked
// on decode, mirroring the in-process type assertion.
package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"time"
	"unsafe"
)

// Transport carries envelopes to ranks hosted by other processes. Send must
// be safe for concurrent use by the local rank's goroutines; ordering must
// be preserved per destination (MPI's non-overtaking guarantee relies on
// it). Implementations live outside this package (internal/world).
type Transport interface {
	// Send ships one envelope to the process hosting env.WDst. The envelope
	// and its Data are owned by the transport for the duration of the call
	// only; implementations must not retain them after returning.
	Send(env *Envelope) error
}

// Envelope is one point-to-point message in wire form: the routing identity
// (world ranks), the matching identity (communicator rank, tag, context),
// the fault-injection markers the in-process path carries in its message
// struct, and the serialized payload.
type Envelope struct {
	WSrc int // sender's world rank
	WDst int // destination world rank
	Src  int // sender's rank within the communicator
	Tag  int
	Ctx  int
	// Seq and Reorder mirror message.seq / SendFault.Reorder: the per-edge
	// dedup sequence and the queue-jump flag, so injected faults behave
	// identically on both transports.
	Seq     uint64
	Reorder bool
	Kind    uint8  // payloadRaw or payloadGob
	Elem    string // element type name, checked on decode
	Count   int    // element count
	Data    []byte
	// pooled is Data's backing when DecodeEnvelope drew it from envPools;
	// release hands it back once the payload has been decoded.
	pooled *[]byte
}

// Payload encodings.
const (
	payloadRaw uint8 = iota // raw in-memory bytes of a pointer-free element slice
	payloadGob              // encoding/gob fallback for pointerful element types
)

// envelope wire layout (little-endian):
//
//	wsrc u32 | wdst u32 | src u32 | tag u64 | ctx u64 | seq u64 |
//	flags u8 | kind u8 | elemLen u16 | count u64 | elem | data
const envelopeHeaderLen = 4 + 4 + 4 + 8 + 8 + 8 + 1 + 1 + 2 + 8

const envFlagReorder uint8 = 1 << 0

// AppendEnvelope appends the wire encoding of e to dst and returns the
// extended slice. The destination buffer is reusable across sends, keeping
// the steady-state wire path allocation-free for raw payloads.
func AppendEnvelope(dst []byte, e *Envelope) []byte {
	var b [envelopeHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(b[0:4], uint32(e.WSrc))
	le.PutUint32(b[4:8], uint32(e.WDst))
	le.PutUint32(b[8:12], uint32(e.Src))
	le.PutUint64(b[12:20], uint64(int64(e.Tag)))
	le.PutUint64(b[20:28], uint64(int64(e.Ctx)))
	le.PutUint64(b[28:36], e.Seq)
	if e.Reorder {
		b[36] = envFlagReorder
	}
	b[37] = e.Kind
	le.PutUint16(b[38:40], uint16(len(e.Elem)))
	le.PutUint64(b[40:48], uint64(int64(e.Count)))
	dst = append(dst, b[:]...)
	dst = append(dst, e.Elem...)
	return append(dst, e.Data...)
}

// envPools recycles the copies DecodeEnvelope makes of received payloads, one
// pool per power-of-two size class so that an 80-byte reduction never pins —
// or evicts — the buffer a half image needs. Pointers to slices are pooled to
// avoid boxing allocations.
var envPools [bits.UintSize + 1]sync.Pool // *[]byte

// DecodeEnvelope reverses AppendEnvelope. Data is copied out of p, so the
// envelope stays valid after the caller's read buffer is reused (frame
// readers recycle their payload buffer between frames). The copy lives in a
// pooled buffer that Recv, the collectives and RecvOwned return as soon as
// they have decoded the payload; an envelope nobody receives (an injected
// duplicate the mailbox drops) is simply collected.
//
// What no sender can produce is refused here, before anything is sized by
// it: a peer's bytes must not be able to do worse than fail the world.
func DecodeEnvelope(p []byte) (Envelope, error) {
	if len(p) < envelopeHeaderLen {
		return Envelope{}, fmt.Errorf("mpi: envelope %d bytes, want >= %d", len(p), envelopeHeaderLen)
	}
	le := binary.LittleEndian
	e := Envelope{
		WSrc:    int(int32(le.Uint32(p[0:4]))),
		WDst:    int(int32(le.Uint32(p[4:8]))),
		Src:     int(int32(le.Uint32(p[8:12]))),
		Tag:     int(int64(le.Uint64(p[12:20]))),
		Ctx:     int(int64(le.Uint64(p[20:28]))),
		Seq:     le.Uint64(p[28:36]),
		Reorder: p[36]&envFlagReorder != 0,
		Kind:    p[37],
		Count:   int(int64(le.Uint64(p[40:48]))),
	}
	if p[36]&^envFlagReorder != 0 {
		return Envelope{}, fmt.Errorf("mpi: unknown envelope flags %#x", p[36])
	}
	elemLen := int(le.Uint16(p[38:40]))
	if len(p) < envelopeHeaderLen+elemLen {
		return Envelope{}, fmt.Errorf("mpi: envelope truncated in element name (%d bytes, need %d)", len(p), envelopeHeaderLen+elemLen)
	}
	data := p[envelopeHeaderLen+elemLen:]
	if err := checkCount(e.Kind, e.Count, len(data)); err != nil {
		return Envelope{}, err
	}
	e.Elem = string(p[envelopeHeaderLen : envelopeHeaderLen+elemLen])
	if len(data) > 0 {
		pool := &envPools[bits.Len(uint(len(data)))]
		ptr, _ := pool.Get().(*[]byte)
		if ptr == nil {
			ptr = new([]byte)
		}
		if cap(*ptr) < len(data) {
			*ptr = make([]byte, len(data))
		}
		e.pooled, e.Data = ptr, (*ptr)[:len(data)]
		copy(e.Data, data)
	}
	return e, nil
}

// checkCount is the part of an envelope's consistency that does not depend
// on the element type: every element of either encoding takes at least one
// byte, and a raw payload of no elements has no bytes.
func checkCount(kind uint8, count, dataLen int) error {
	switch {
	case kind != payloadRaw && kind != payloadGob:
		return fmt.Errorf("mpi: unknown envelope payload kind %d", kind)
	case count < 0 || count > dataLen:
		return fmt.Errorf("mpi: envelope claims %d elements in %d payload bytes", count, dataLen)
	case kind == payloadRaw && count == 0 && dataLen > 0:
		return fmt.Errorf("mpi: raw envelope carries %d bytes for no elements", dataLen)
	}
	return nil
}

// release returns a decoded envelope's pooled payload copy. The envelope
// keeps its header; Data is gone.
func (e *Envelope) release() {
	if e.pooled != nil {
		envPools[bits.Len(uint(cap(*e.pooled)))].Put(e.pooled)
		e.pooled, e.Data = nil, nil
	}
}

// NewWorld assembles one process's share of a distributed world: the local
// process hosts exactly rank `rank` of `size`, and every other rank is
// reached through t. The returned Comm is the world communicator handle for
// the hosted rank; incoming envelopes are injected with World.Deliver and a
// peer failure is surfaced with World.Fail. Options are the same ones Run
// accepts (WithRecvTimeout, WithFaults).
func NewWorld(rank, size int, t Transport, opts ...Option) (*World, *Comm) {
	if size <= 0 || rank < 0 || rank >= size {
		panic(fmt.Sprintf("mpi: invalid world rank %d of %d", rank, size))
	}
	w := &World{
		size:        size,
		boxes:       make([]*mailbox, size),
		traffic:     make([]trafficCounters, size),
		recvTimeout: DefaultRecvTimeout,
		remote:      t,
	}
	w.boxes[rank] = &mailbox{}
	for _, o := range opts {
		o(w)
	}
	group := make([]int, size)
	for i := range group {
		group[i] = i
	}
	return w, &Comm{world: w, rank: rank, size: size, group: group, ctx: 0}
}

// Deliver injects an envelope received from the transport into the hosted
// rank's mailbox — the receiving half of a remote send. Faulted envelopes
// (Seq > 0) take the dedup/reorder path exactly like local injected sends.
func (w *World) Deliver(e *Envelope) error {
	if e.WDst < 0 || e.WDst >= len(w.boxes) || w.boxes[e.WDst] == nil {
		return fmt.Errorf("mpi: envelope for world rank %d, which this process does not host", e.WDst)
	}
	msg := message{src: e.Src, tag: e.Tag, ctx: e.Ctx, payload: e, seq: e.Seq, wsrc: e.WSrc}
	box := w.boxes[e.WDst]
	if e.Seq > 0 || e.Reorder {
		box.putFaulty(msg, e.Reorder)
	} else {
		box.put(msg)
	}
	return nil
}

// Fail poisons every locally hosted mailbox: blocked and future receives
// return err immediately instead of waiting out the deadlock timeout. The
// world package calls this when a peer connection dies, turning a remote
// rank crash into a fast, attributable collective failure.
func (w *World) Fail(err error) {
	for _, b := range w.boxes {
		if b != nil {
			b.poison(err)
		}
	}
}

// remoteDst validates dest and returns its world rank when it is hosted by
// another process, or -1 when local delivery applies. In-process worlds
// answer -1 after a single nil check.
func (c *Comm) remoteDst(dest int) int {
	if dest < 0 || dest >= c.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dest, c.size))
	}
	w := c.world
	if w.remote == nil {
		return -1
	}
	wd := c.group[dest]
	if w.boxes[wd] != nil {
		return -1
	}
	return wd
}

// sendRemote ships an envelope through the world's transport, applying the
// same fault-injection actions as the local faulty path: crash panics the
// rank, stall/delay sleep the sender, dup sends the envelope twice (the
// receiver's seq high-water mark drops the copy), reorder travels as an
// envelope flag. A transport error means the peer is gone and the
// collective in flight cannot complete: it poisons the hosted mailboxes with
// the cause (World.Fail), so this rank's next receive returns an error that
// names the dead rank instead of the send panicking.
func (c *Comm) sendRemote(env *Envelope) {
	w := c.world
	if w.faults != nil {
		f := w.faults.BeforeSend(env.WSrc, env.WDst, env.Tag)
		if f.Crash != "" {
			panic(InjectedCrash{f.Crash})
		}
		if f.Stall > 0 {
			time.Sleep(f.Stall)
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		env.Seq = f.Seq
		env.Reorder = f.Reorder
		transportSend(w, env)
		if f.Dup {
			dup := *env
			dup.Reorder = false
			transportSend(w, &dup)
		}
		return
	}
	transportSend(w, env)
}

func transportSend(w *World, env *Envelope) {
	if err := w.remote.Send(env); err != nil {
		w.Fail(fmt.Errorf("mpi: transport send to world rank %d failed: %w", env.WDst, err))
	}
}

// buildEnvelope serializes data into a wire envelope addressed to wdst.
func buildEnvelope[T any](c *Comm, wdst, tag int, data []T) *Envelope {
	kind, payload := encodePayload(data)
	return &Envelope{
		WSrc:  c.group[c.rank],
		WDst:  wdst,
		Src:   c.rank,
		Tag:   tag,
		Ctx:   c.ctx,
		Kind:  kind,
		Elem:  elemName[T](),
		Count: len(data),
		Data:  payload,
	}
}

// elemName returns the stable name of T used for cross-process type checks.
func elemName[T any]() string {
	return reflect.TypeOf((*T)(nil)).Elem().String()
}

// podCache memoizes the pointer-free check per element type.
var podCache sync.Map // reflect.Type -> bool

// isPOD reports whether values of t contain no pointers, making the raw
// byte-view encoding faithful.
func isPOD(t reflect.Type) bool {
	if v, ok := podCache.Load(t); ok {
		return v.(bool)
	}
	pod := computePOD(t)
	podCache.Store(t, pod)
	return pod
}

func computePOD(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return computePOD(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !computePOD(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// encodePayload serializes an element slice: raw bytes for pointer-free
// element types, gob otherwise. The raw encoding ALIASES data — no copy —
// which is safe because Transport.Send completes the wire write before
// returning and may not retain the envelope; the receiver copies out of its
// read buffer in DecodeEnvelope. A gob failure is a programming error (an
// unencodable type reached a remote send) and panics, matching the send
// path's no-error signature.
func encodePayload[T any](data []T) (uint8, []byte) {
	et := reflect.TypeOf((*T)(nil)).Elem()
	// A zero-size element has no bytes to count on the far side; it takes
	// the gob route, which refuses it here instead of failing the peer.
	if isPOD(et) && et.Size() > 0 {
		if len(data) == 0 {
			return payloadRaw, nil
		}
		return payloadRaw, unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*int(et.Size()))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(data); err != nil {
		panic(fmt.Sprintf("mpi: cannot encode %s payload for transport: %v", et, err))
	}
	return payloadGob, buf.Bytes()
}

// checkPayload reports whether e can be decoded as []T, trusting nothing in
// it: the element type is compared like the in-process type assertion, and a
// raw payload must be exactly Count elements long. Nothing is sized by Count
// before this has passed.
func checkPayload[T any](e *Envelope) error {
	if want := elemName[T](); e.Elem != want {
		return fmt.Errorf("mpi: recv type mismatch: envelope from world rank %d tag %d holds []%s, want []%s", e.WSrc, e.Tag, e.Elem, want)
	}
	if err := checkCount(e.Kind, e.Count, len(e.Data)); err != nil {
		return err
	}
	if size := sizeOf[T](); e.Kind == payloadRaw && len(e.Data) != e.Count*size {
		return fmt.Errorf("mpi: raw envelope carries %d bytes for %d x %d-byte elements", len(e.Data), e.Count, size)
	}
	return nil
}

// decodePayload deserializes an envelope's payload as []T — into buf when it
// has the capacity, into a fresh slice otherwise — and returns the
// envelope's pooled copy of the bytes, on every path.
func decodePayload[T any](e *Envelope, buf []T) ([]T, error) {
	defer e.release()
	if err := checkPayload[T](e); err != nil {
		return nil, err
	}
	fits := buf != nil && cap(buf) >= e.Count
	if e.Kind == payloadGob {
		// Always through a fresh slice: gob leaves what the stream omits
		// (zero values) as it finds it, and buf is recycled.
		tmp := []T{}
		if err := gob.NewDecoder(bytes.NewReader(e.Data)).Decode(&tmp); err != nil {
			return nil, fmt.Errorf("mpi: gob envelope decode: %w", err)
		}
		if len(tmp) != e.Count {
			return nil, fmt.Errorf("mpi: gob envelope decoded %d elements, header says %d", len(tmp), e.Count)
		}
		if !fits {
			return tmp, nil
		}
		return buf[:copy(buf[:e.Count], tmp)], nil
	}
	if !fits {
		buf = make([]T, e.Count)
	}
	buf = buf[:e.Count]
	if e.Count > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(e.Data)), e.Data)
	}
	return buf, nil
}
