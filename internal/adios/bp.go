// Package adios implements the ADIOS-flavored I/O service of this
// reproduction: a self-describing BP-style container codec and swappable
// transports — a POSIX file transport and a FlexPath-like staging transport
// that moves steps from a writer group to an endpoint (reader) group without
// touching storage.
//
// As in the paper, ADIOS "does not include any of the analytics
// functionality itself; it marshals the memory and metadata to make such
// code self-describing" — the endpoint re-hydrates a dataset and hands it to
// ordinary SENSEI analyses (histogram, autocorrelation, Catalyst). Since
// PR 6 the serialization cost the paper's §4.1.4 attributes to the ~50%
// runtime penalty of staging is attacked on both ends: the container is
// packed by a bulk little-endian serializer into a pooled per-writer buffer
// (no fresh full-size allocation per step, no per-value reflection), and the
// wire below it can delta-encode, compress, or replace the container with a
// negotiated extract (see internal/fabric's codec layer and extract
// negotiation).
package adios

import (
	"encoding/binary"
	"fmt"
	"math"

	"gosensei/internal/array"
	"gosensei/internal/grid"
)

const (
	bpMagic   = 0x47_4F_42_50 // "GOBP"
	bpVersion = 1

	// bpHeaderSize is the fixed prefix: magic, version, extent, origin,
	// spacing, step, time, array count.
	bpHeaderSize = 4 + 4 + 6*8 + 3*8 + 3*8 + 8 + 8 + 4
)

// EncodeStep serializes an image-data block with all attributes into a
// self-describing BP-style buffer.
func EncodeStep(img *grid.ImageData, step int, time float64) []byte {
	return AppendStep(nil, img, step, time)
}

// AppendStep appends the serialized step to dst and returns the extended
// slice — the allocation-free path when dst is a reused per-writer buffer
// (dst[:0]). Packing is bulk manual little-endian: whole float64 arrays are
// written with one bounds-checked loop over a preallocated region instead of
// one reflective binary.Write call per value, which was the single hottest
// line in the staging pipeline.
func AppendStep(dst []byte, img *grid.ImageData, step int, time float64) []byte {
	type entry struct {
		assoc grid.Association
		a     array.Array
	}
	var arrays []entry
	size := bpHeaderSize
	for _, assoc := range []grid.Association{grid.PointData, grid.CellData} {
		fd := img.Attributes(assoc)
		for i := 0; i < fd.Len(); i++ {
			a := fd.At(i)
			arrays = append(arrays, entry{assoc, a})
			size += 4 + len(a.Name()) + 1 + 4 + 8 + a.Tuples()*a.Components()*8
		}
	}

	// One exact-size grow, then raw index math over the reserved region.
	base := len(dst)
	if cap(dst)-base < size {
		grown := make([]byte, base, base+size)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[base : base+size]
	dst = dst[:base+size]

	le := binary.LittleEndian
	off := 0
	put32 := func(v uint32) { le.PutUint32(buf[off:], v); off += 4 }
	put64 := func(v uint64) { le.PutUint64(buf[off:], v); off += 8 }
	putF := func(v float64) { put64(math.Float64bits(v)) }

	put32(bpMagic)
	put32(bpVersion)
	for _, e := range img.Extent {
		put64(uint64(int64(e)))
	}
	for _, o := range img.Origin {
		putF(o)
	}
	for _, s := range img.Spacing {
		putF(s)
	}
	put64(uint64(int64(step)))
	putF(time)
	put32(uint32(len(arrays)))
	for _, e := range arrays {
		name := e.a.Name()
		put32(uint32(len(name)))
		off += copy(buf[off:], name)
		buf[off] = byte(e.assoc)
		off++
		put32(uint32(e.a.Components()))
		put64(uint64(int64(e.a.Tuples())))
		off += packValues(buf[off:], e.a)
	}
	return dst
}

// packValues writes every value of a in tuple-major float64 order into buf,
// returning the bytes written. The common staging payloads — interleaved
// float64 arrays — take the bulk path over the raw backing slice; everything
// else goes value by value through the Array interface, still with manual
// PutUint64 packing.
func packValues(buf []byte, a array.Array) int {
	le := binary.LittleEndian
	if ta, ok := a.(*array.Typed[float64]); ok {
		if raw := ta.RawAOS(); raw != nil {
			off := 0
			for _, v := range raw {
				le.PutUint64(buf[off:], math.Float64bits(v))
				off += 8
			}
			return off
		}
		if planes := ta.RawSOA(); len(planes) == 1 {
			// A single SOA plane is contiguous tuple-major order too.
			off := 0
			for _, v := range planes[0] {
				le.PutUint64(buf[off:], math.Float64bits(v))
				off += 8
			}
			return off
		}
	}
	off := 0
	tuples, comps := a.Tuples(), a.Components()
	for t := 0; t < tuples; t++ {
		for c := 0; c < comps; c++ {
			le.PutUint64(buf[off:], math.Float64bits(a.Value(t, c)))
			off += 8
		}
	}
	return off
}

// bpReader is a bounds-checked cursor over a BP buffer. Reads past the end
// set err (sticky) and return zero values, mirroring the old binary.Read
// closure behavior without the per-call interface and reflection costs.
type bpReader struct {
	data []byte
	off  int
	err  error
}

func (r *bpReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("unexpected end of container at byte %d", r.off)
	}
}

func (r *bpReader) rem() int { return len(r.data) - r.off }

func (r *bpReader) u32() uint32 {
	if r.rem() < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *bpReader) u64() uint64 {
	if r.rem() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *bpReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *bpReader) byte() byte {
	if r.rem() < 1 {
		r.fail()
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *bpReader) bytes(n int) []byte {
	if n < 0 || r.rem() < n {
		r.fail()
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// DecodeStep re-hydrates a BP buffer into image data.
func DecodeStep(data []byte) (*grid.ImageData, int, float64, error) {
	return decodeStep(data, func(n int) []float64 { return make([]float64, n) })
}

// valueStore recycles the value arrays of re-hydrated steps: an endpoint
// reader decodes each staged container into storage lent from here and
// hands it back once the step has executed, so a steady stream re-hydrates
// into the same few arrays. Like fabric's pools it lends the smallest free
// array that fits, and the first time it has none for a length larger than
// any it has seen it makes fill of them — the reader's credit bound — so the
// stream's high-water mark is reached at once. A lent array's contents are
// unspecified.
type valueStore struct {
	fill int
	seen int
	free [][]float64
}

func (s *valueStore) lend(n int) []float64 {
	best := -1
	for i, v := range s.free {
		if cap(v) >= n && (best < 0 || cap(v) < cap(s.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		v := s.free[best]
		s.free[best] = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		return v[:n]
	}
	if n > s.seen {
		s.seen = n
		for i := 1; i < s.fill; i++ {
			s.free = append(s.free, make([]float64, n))
		}
	}
	return make([]float64, n)
}

// decodeStep is DecodeStep over caller-supplied value storage: values(n)
// returns the n-element slice an array's values are written to, every
// element of it.
func decodeStep(data []byte, values func(n int) []float64) (*grid.ImageData, int, float64, error) {
	r := &bpReader{data: data}
	if m := r.u32(); r.err != nil || m != bpMagic {
		return nil, 0, 0, fmt.Errorf("adios: bad magic %#x", m)
	}
	if v := r.u32(); r.err != nil || v != bpVersion {
		return nil, 0, 0, fmt.Errorf("adios: unsupported version %d", v)
	}
	var ext grid.Extent
	for i := range ext {
		ext[i] = int(int64(r.u64()))
	}
	// Plausibility bounds before the extent flows into any analysis: axes
	// may be empty (hi == lo-1) but not inverted, and no axis spans more
	// points than the largest configuration this reproduction stages. The
	// coordinates are bounded individually first so the difference checks
	// cannot be wrapped past by extreme values (lo = MinInt64 overflows
	// both lo-1 and hi-lo).
	const maxAxisPoints = 1 << 24
	const maxCoord = int64(1) << 40
	for axis := 0; axis < 3; axis++ {
		lo, hi := int64(ext[2*axis]), int64(ext[2*axis+1])
		if lo < -maxCoord || lo > maxCoord || hi < -maxCoord || hi > maxCoord ||
			hi < lo-1 || hi-lo >= maxAxisPoints {
			return nil, 0, 0, fmt.Errorf("adios: implausible extent %v", ext)
		}
	}
	img := grid.NewImageData(ext)
	for i := range img.Origin {
		img.Origin[i] = r.f64()
	}
	for i := range img.Spacing {
		img.Spacing[i] = r.f64()
	}
	step := int(int64(r.u64()))
	t := r.f64()
	n := r.u32()
	if r.err != nil {
		return nil, 0, 0, fmt.Errorf("adios: truncated header: %w", r.err)
	}
	const maxArrays = 1 << 16
	if n > maxArrays {
		return nil, 0, 0, fmt.Errorf("adios: implausible array count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		nameLen := r.u32()
		if r.err != nil || int(nameLen) > r.rem() {
			return nil, 0, 0, fmt.Errorf("adios: truncated array %d name", i)
		}
		name := r.bytes(int(nameLen))
		assocB := r.byte()
		comps := int(r.u32())
		tuples := int(int64(r.u64()))
		if r.err != nil {
			return nil, 0, 0, fmt.Errorf("adios: truncated array %d header: %w", i, r.err)
		}
		// Overflow-safe shape check: comps*tuples*8 must not exceed the
		// remaining bytes, validated by division so an adversarial shape
		// cannot wrap the product and slip past into the allocation.
		if comps <= 0 || tuples < 0 {
			return nil, 0, 0, fmt.Errorf("adios: implausible array %d shape %dx%d", i, tuples, comps)
		}
		if tuples > 0 && comps > r.rem()/8/tuples {
			return nil, 0, 0, fmt.Errorf("adios: array %d shape %dx%d exceeds remaining %d bytes", i, tuples, comps, r.rem())
		}
		le := binary.LittleEndian
		src := r.bytes(comps * tuples * 8)
		if r.err != nil {
			return nil, 0, 0, fmt.Errorf("adios: truncated array %d data: %w", i, r.err)
		}
		vals := values(comps * tuples)
		for j := range vals {
			vals[j] = math.Float64frombits(le.Uint64(src[j*8:]))
		}
		img.Attributes(grid.Association(assocB)).Add(array.WrapAOS(string(name), comps, vals))
	}
	return img, step, t, nil
}
