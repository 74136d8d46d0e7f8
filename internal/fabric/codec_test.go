package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestCodecNames(t *testing.T) {
	for _, id := range []uint8{CodecRaw, CodecFlate, CodecDelta} {
		got, err := ParseCodec(CodecName(id))
		if err != nil || got != id {
			t.Fatalf("ParseCodec(CodecName(%d)) = %d, %v", id, got, err)
		}
	}
	if _, err := ParseCodec("zstd"); !errors.Is(err, ErrCodecUnknown) {
		t.Fatalf("ParseCodec(zstd) err = %v, want ErrCodecUnknown", err)
	}
}

func TestChooseCodec(t *testing.T) {
	cases := []struct {
		pref    []uint8
		offered uint32
		want    uint8
	}{
		{[]uint8{CodecDelta, CodecFlate}, AllCodecs, CodecDelta},
		{[]uint8{CodecDelta, CodecFlate}, 1 << CodecFlate, CodecFlate},
		{[]uint8{CodecDelta}, 1 << CodecRaw, CodecRaw}, // v1 peer: nothing offered beyond raw
		{[]uint8{CodecDelta}, 0, CodecRaw},
		{nil, AllCodecs, CodecRaw},
		{[]uint8{200, CodecFlate}, AllCodecs, CodecFlate}, // unknown preference skipped
	}
	for i, c := range cases {
		if got := chooseCodec(c.pref, c.offered); got != c.want {
			t.Fatalf("case %d: chooseCodec(%v, %b) = %d, want %d", i, c.pref, c.offered, got, c.want)
		}
	}
}

// gather undoes scatter against the same reference, at every length the
// word loop has an edge at.
func TestPlaneScatterGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, g := range []int{0, 1, 2, 7, 8, 9, 128} {
		ref, cur := make([]byte, 8*g), make([]byte, 8*g)
		rng.Read(ref)
		rng.Read(cur)
		back := append([]byte(nil), ref...)
		flat := make([]byte, 8*g)
		scatter(flat, ref, cur)
		if !bytes.Equal(ref, cur) {
			t.Fatalf("g=%d: scatter did not leave the step in the reference", g)
		}
		var planes [8][]byte
		for j := range planes {
			planes[j] = flat[j*g : (j+1)*g]
		}
		gather(back, &planes)
		if !bytes.Equal(back, cur) {
			t.Fatalf("g=%d: gather(scatter(x)) != x", g)
		}
	}
}

// TestCodecRoundTripProperty: a chain of steps through one encoder decodes
// bit-identical through one decoder, for every codec and for payload shapes
// including non-multiple-of-8 lengths, size changes mid-chain (forcing a
// keyframe), and empty steps — every chain opens on the lengths the word
// loop has an edge at and passes through 0 twice.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, id := range []uint8{CodecFlate, CodecDelta} {
			enc := newCodecEncoder(id, nil)
			dec := newCodecDecoder(id, 0, nil)
			sizes := []int{0, 0, 1, 7, 8, 8, 9, 0, 264, 264, 0}
			for n, size := 1+rng.Intn(6), rng.Intn(4096); n > 0; n-- {
				if rng.Intn(4) == 0 {
					size = rng.Intn(4096) // shape change: chain must keyframe
				}
				sizes = append(sizes, size)
			}
			field := make([]float64, 512)
			for i := range field {
				field[i] = rng.NormFloat64()
			}
			var wire []byte
			for s, size := range sizes {
				payload := make([]byte, size)
				// Smooth-ish content: slowly evolving float64 bit patterns,
				// like consecutive oscillator steps.
				for i := 0; i+8 <= size; i += 8 {
					field[(i/8)%len(field)] += rng.NormFloat64() * 1e-3
					binary.LittleEndian.PutUint64(payload[i:], math.Float64bits(field[(i/8)%len(field)]))
				}
				for i := size &^ 7; i < size; i++ {
					payload[i] = byte(rng.Intn(256))
				}
				wire = append(wire[:0], "frame header"...)
				body, key, err := enc.encode(wire, payload)
				if err != nil {
					t.Logf("encode: %v", err)
					return false
				}
				if !bytes.HasPrefix(body, wire) {
					t.Log("encode did not append to what it was given")
					return false
				}
				wantKey := id == CodecFlate || s == 0 || size != sizes[s-1]
				if key != wantKey {
					t.Logf("step %d (codec %s, %d bytes after %v): keyframe = %v", s, CodecName(id), size, sizes[:s], key)
					return false
				}
				got, err := dec.decode(body[len(wire):], key)
				if err != nil {
					t.Logf("decode: %v", err)
					return false
				}
				if !bytes.Equal(got, payload) {
					t.Logf("step %d (codec %s, %d bytes): round trip differs", s, CodecName(id), size)
					return false
				}
			}
			enc.close()
			dec.close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecKeyframeResetsChain models the reconnect path: a fresh decoder
// (endpoint restart) can only resume from a keyframe, and the encoder
// produces one when asked to restart its epoch.
func TestCodecKeyframeResetsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = make([]byte, 256)
		rng.Read(payloads[i])
	}

	enc := newCodecEncoder(CodecDelta, nil)
	defer enc.close()
	dec := newCodecDecoder(CodecDelta, 0, nil)
	for i := 0; i < 2; i++ {
		body, key, err := enc.encode(nil, payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && key {
			t.Fatal("steady-state frame unexpectedly keyframed")
		}
		if _, err := dec.decode(body, key); err != nil {
			t.Fatal(err)
		}
	}
	dec.close()

	// Endpoint dies. A new decoder must reject the continuation of the old
	// chain...
	dec2 := newCodecDecoder(CodecDelta, 0, nil)
	defer dec2.close()
	body, key, err := enc.encode(nil, payloads[2])
	if err != nil {
		t.Fatal(err)
	}
	if key {
		t.Fatal("expected a delta frame to demonstrate the chain break")
	}
	if _, err := dec2.decode(body, key); !errors.Is(err, ErrCodecChain) {
		t.Fatalf("decode of mid-chain delta on fresh decoder: err = %v, want ErrCodecChain", err)
	}

	// ...and accept a fresh epoch: new encoder state → keyframe first.
	enc2 := newCodecEncoder(CodecDelta, nil)
	defer enc2.close()
	for i, p := range payloads {
		body, key, err := enc2.encode(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if (i == 0) != key {
			t.Fatalf("frame %d keyframe = %v", i, key)
		}
		got, err := dec2.decode(body, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: round trip differs after epoch reset", i)
		}
	}
}

// TestCodecDecodeBound: a body claiming (or actually holding) more than the
// configured payload bound errors out without materializing the excess.
func TestCodecDecodeBound(t *testing.T) {
	enc := newCodecEncoder(CodecFlate, nil)
	defer enc.close()
	big := make([]byte, 1<<20) // zeros: compresses to ~1KB
	body, key, err := enc.encode(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	const max = 64 << 10
	dec := newCodecDecoder(CodecFlate, max, nil)
	defer dec.close()
	if _, err := dec.decode(body, key); !errors.Is(err, ErrCodecTooLarge) {
		t.Fatalf("decode err = %v, want ErrCodecTooLarge", err)
	}
	if cap(dec.infl) > max+growStep {
		t.Fatalf("inflate buffer grew to %d, far past the %d bound", cap(dec.infl), max)
	}
}

// TestCodecDecodeCorrupt: bit flips in compressed bodies produce errors,
// never panics.
func TestCodecDecodeCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	enc := newCodecEncoder(CodecDelta, nil)
	defer enc.close()
	payload := make([]byte, 2048)
	rng.Read(payload)
	body, key, err := enc.encode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), body...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		dec := newCodecDecoder(CodecDelta, 1<<20, nil)
		got, err := dec.decode(mut, key)
		if err == nil && !bytes.Equal(got, payload) {
			// A flip the checksum-free flate stream tolerates may decode to
			// different bytes; that layer's integrity comes from the frame
			// CRC. It must simply not panic or over-allocate.
			if len(got) > 1<<20 {
				t.Fatalf("mutation %d: decoded %d bytes past bound", i, len(got))
			}
		}
		dec.close()
	}
}

// deltaBody assembles a CodecDelta body by hand: the header, the trailing
// bytes, the raw planes, the stream.
func deltaBody(n uint32, mask byte, tail []byte, raw [][]byte, stream []byte) []byte {
	b := append(binary.LittleEndian.AppendUint32(nil, n), mask)
	b = append(b, tail...)
	for _, p := range raw {
		b = append(b, p...)
	}
	return append(b, stream...)
}

// deflated is a DEFLATE stream of the planes, back to back.
func deflated(t testing.TB, planes ...[]byte) []byte {
	t.Helper()
	enc := newCodecEncoder(CodecFlate, nil)
	defer enc.close()
	out, err := enc.deflate(nil, planes...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeltaDecodeHardening walks the body layout: every mask shape decodes
// to what its planes spell, and every way a body can disagree with itself —
// a plane or the stream running short or long, a claimed length past the
// bound, a delta against a reference of another length — is an error that
// leaves the chain where it was.
func TestDeltaDecodeHardening(t *testing.T) {
	// Two words and three trailing bytes; plane j of the keyframe residual
	// is {j+1, 0x10*(j+1)}.
	const n = 2*8 + 3
	var planes [8][]byte
	var want [n]byte
	for w := 0; w < 2; w++ {
		var z uint64
		for j := range planes {
			planes[j] = append(planes[j], byte((j+1)<<(4*w)))
			z |= uint64(planes[j][w]) << (8 * j)
		}
		binary.LittleEndian.PutUint64(want[8*w:], unzigzag(z))
	}
	tail := []byte("end")
	copy(want[16:], tail)
	long := append(append([]byte(nil), planes[7]...), 0xEE)

	const max = 1 << 16
	cases := []struct {
		name     string
		body     []byte
		delta    bool // decode as a non-keyframe
		err      error
		anyError bool
	}{
		{name: "all raw", body: deltaBody(n, 0x00, tail, planes[:], nil)},
		{name: "all coded", body: deltaBody(n, 0xFF, tail, nil, deflated(t, planes[:]...))},
		{name: "mixed", body: deltaBody(n, 0xC1, tail, planes[1:6], deflated(t, planes[0], planes[6], planes[7]))},
		{name: "no header", body: []byte{n, 0, 0, 0}, anyError: true},
		{name: "ends in the trailing bytes", body: deltaBody(n, 0x00, tail[:2], nil, nil), anyError: true},
		{name: "raw plane past the body", body: deltaBody(n, 0x00, tail, planes[:7], planes[7][:1]), anyError: true},
		{name: "bytes past the raw planes", body: deltaBody(n, 0x00, tail, planes[:], []byte{0}), anyError: true},
		{name: "mask names a stream that is not there", body: deltaBody(n, 0x80, tail, planes[:7], nil), anyError: true},
		{name: "stream one plane short", body: deltaBody(n, 0xC1, tail, planes[1:6], deflated(t, planes[0], planes[6])), anyError: true},
		{name: "stream one byte long", body: deltaBody(n, 0xC1, tail, planes[1:6], deflated(t, planes[0], planes[6], long)), anyError: true},
		{name: "stream corrupt", body: deltaBody(n, 0x80, tail, planes[:7], []byte{0xFF, 0xFF, 0xFF}), anyError: true},
		{name: "claims past the bound", body: deltaBody(max+1, 0xFF, nil, nil, deflated(t, planes[:]...)), err: ErrCodecTooLarge},
		{name: "delta of another length", body: deltaBody(n-8, 0x00, tail, [][]byte{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}, nil), delta: true, err: ErrCodecChain},
		{name: "delta on no reference", body: deltaBody(n, 0x00, tail, planes[:], nil), delta: true, err: ErrCodecChain},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newCodecDecoder(CodecDelta, max, nil)
			defer d.close()
			if c.name != "delta on no reference" {
				if _, err := d.decode(cases[0].body, true); err != nil {
					t.Fatalf("reference keyframe: %v", err)
				}
			}
			got, err := d.decode(c.body, !c.delta)
			switch {
			case c.err != nil:
				if !errors.Is(err, c.err) {
					t.Fatalf("err = %v, want %v", err, c.err)
				}
			case c.anyError:
				if err == nil {
					t.Fatalf("decoded %x, want an error", got)
				}
			default:
				if err != nil || !bytes.Equal(got, want[:]) {
					t.Fatalf("decoded %x, %v; want %x", got, err, want)
				}
				return
			}
			// A refused body leaves the reference alone: an all-zero delta
			// still decodes to the keyframe's payload.
			if c.name != "delta on no reference" {
				var zero [8][]byte
				for j := range zero {
					zero[j] = []byte{0, 0}
				}
				got, err := d.decode(deltaBody(n, 0x00, tail, zero[:], nil), false)
				if err != nil || !bytes.Equal(got, want[:]) {
					t.Fatalf("after the refusal the chain decodes %x, %v; want %x", got, err, want)
				}
			}
		})
	}
}

// TestDeltaDecodeAllocatesWhatArrives: a 64-byte body claiming MaxPayload,
// in every mask shape, costs the decoder what its bytes inflate to — the
// parent's bound — and nothing for the length it claims.
func TestDeltaDecodeAllocatesWhatArrives(t *testing.T) {
	bomb := deflated(t, make([]byte, 32<<10)) // ~1000:1
	for _, mask := range []byte{0x00, 0x0F, 0xFF} {
		body := deltaBody(MaxPayload, mask, nil, nil, bomb)
		if len(body) > 64 {
			t.Fatalf("body is %d bytes", len(body))
		}
		d := newCodecDecoder(CodecDelta, 0, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := d.decode(body, true)
		runtime.ReadMemStats(&after)
		d.close()
		if err == nil {
			t.Fatalf("mask %08b: a 64-byte body decoded to MaxPayload", mask)
		}
		// The flate decoder of the parent commit, handed the same stream,
		// materializes its 32 KiB in doubling steps: under 128 KiB in all.
		if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
			t.Errorf("mask %08b: decode allocated %d bytes for a %d-byte body", mask, got, len(body))
		}
	}
}

// TestPlanesShipRawOrCoded: noise ships raw at a cost of the header, zeros
// ship coded, and a payload with both gets both — by plane.
func TestPlanesShipRawOrCoded(t *testing.T) {
	const words = 8 << 10
	rng := rand.New(rand.NewSource(64))
	noise := make([]byte, 8*words)
	rng.Read(noise)
	halves := make([]byte, 8*words) // keyframe residual: low four planes noise, high four nearly empty
	for i := 0; i < words; i++ {
		binary.LittleEndian.PutUint64(halves[8*i:], uint64(rng.Uint32())>>1)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		mask    byte
		atMost  int
	}{
		{"noise", noise, 0x00, len(noise) + 16},
		{"zeros", make([]byte, 8*words), 0xFF, 1 << 10},
		{"halves", halves, 0xF0, len(halves)/2 + 1<<10},
	} {
		enc := newCodecEncoder(CodecDelta, nil)
		body, _, err := enc.encode(nil, c.payload)
		enc.close()
		if err != nil {
			t.Fatal(err)
		}
		if body[4] != c.mask || len(body) > c.atMost {
			t.Errorf("%s: mask %08b, %d bytes; want mask %08b and at most %d", c.name, body[4], len(body), c.mask, c.atMost)
		}
	}
	// A field mirrored about an axis repeats its rows: flat histogram, and
	// DEFLATE halves it.
	mirrored := make([]byte, 4<<10)
	rng.Read(mirrored[:len(mirrored)/2])
	for i := 0; i < len(mirrored)/2; i += 16 {
		copy(mirrored[len(mirrored)-16-i:], mirrored[i:i+16])
	}
	if !compressible(mirrored) {
		t.Error("a plane of repeated rows was called noise")
	}
}

// TestCodecSteadyStateAllocatesNothing: once the first frames have sized
// the buffers, neither direction allocates. The steps differ by 31-bit
// integers, so four planes ship raw and four go through DEFLATE as runs of
// zeros; compress/flate's inflater itself allocates link tables for every
// block whose Huffman codes run past nine bits, which such a stream never has
// and which is not this package's to pool.
func TestCodecSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(65))
	steps := [2][]byte{make([]byte, 8<<13), make([]byte, 8<<13)}
	for i := 0; i < len(steps[0]); i += 8 {
		v := rng.Uint64()
		binary.LittleEndian.PutUint64(steps[0][i:], v)
		binary.LittleEndian.PutUint64(steps[1][i:], v+uint64(rng.Uint32()>>1))
	}
	for _, id := range []uint8{CodecFlate, CodecDelta} {
		enc, dec := newCodecEncoder(id, nil), newCodecDecoder(id, 0, nil)
		var wire []byte
		i := 0
		round := func() {
			var key bool
			var err error
			if wire, key, err = enc.encode(wire[:0], steps[i%2]); err != nil {
				t.Fatal(err)
			}
			got, err := dec.decode(wire, key)
			if err != nil || !bytes.Equal(got, steps[i%2]) {
				t.Fatalf("%s: step %d does not round-trip: %v", CodecName(id), i, err)
			}
			i++
		}
		round()
		round()
		round()
		if id == CodecDelta && wire[4] != 0xF0 {
			t.Fatalf("mask %08b, want the low planes raw and the high ones coded", wire[4])
		}
		if n := testing.AllocsPerRun(50, round); n != 0 {
			t.Errorf("%s: %.0f allocs per encode+decode, want 0", CodecName(id), n)
		}
		enc.close()
		dec.close()
	}
}
