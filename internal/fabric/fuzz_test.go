package fabric

import (
	"bytes"
	"io"
	"testing"
)

// FuzzFrameDecode hammers the frame decoder with arbitrary byte streams:
// whatever arrives, it must return frames or errors — never panic — and a
// truncated stream with an inflated claimed length must not balloon the
// payload buffer past what actually arrived.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, FrameData, 1, []byte("a staged step")))
	f.Add(AppendFrame(nil, FrameEOS, 9, nil))
	f.Add(AppendFrame(nil, FrameSteer, 0, AppendSteerPayload(nil, "iso", 0.5)))
	two := AppendFrame(nil, FrameAdvance, 3, nil)
	f.Add(AppendFrame(two, FrameRelease, 3, nil))
	trunc := AppendFrame(nil, FrameData, 2, bytes.Repeat([]byte("x"), 256))
	f.Add(trunc[:len(trunc)-17])
	corrupt := AppendFrame(nil, FrameData, 4, []byte("to be corrupted"))
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	huge := AppendFrame(nil, FrameData, 5, nil)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(huge)
	// Handshake payloads: a world-membership hello (with peer
	// address), one whose claimed address length disagrees with the
	// payload, and a welcome carrying the world tail.
	v3 := appendHello(nil, Hello{Version: ProtocolVersion, Role: RoleRank, Rank: 2,
		WorldID: 77001, WorldEpoch: 2, WorldSize: 4, PeerAddr: "127.0.0.1:4001"})
	f.Add(AppendFrame(nil, FrameHello, 6, v3))
	badAddr := append([]byte(nil), v3...)
	badAddr[45], badAddr[46] = 0xFF, 0x7F // addr length 32767 >> actual
	f.Add(AppendFrame(nil, FrameHello, 7, badAddr))
	f.Add(AppendFrame(nil, FrameWelcome, 8, appendWelcome(nil,
		Welcome{Version: ProtocolVersion, WorldID: 77001, WorldEpoch: 2, PeerRank: 2})))

	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(bytes.NewReader(stream), maxPayload)
		for {
			typ, _, payload, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					len(err.Error()) == 0 {
					t.Fatalf("empty error text")
				}
				break
			}
			if typ == 0 || typ > frameTypeMax {
				t.Fatalf("decoder returned invalid type %d without error", typ)
			}
			if len(payload) > maxPayload {
				t.Fatalf("payload %d exceeds configured max %d", len(payload), maxPayload)
			}
			// Control payloads must decode or error, never panic.
			switch typ {
			case FrameData:
				_, _, _ = SplitStepPayload(payload)
			case FrameSteer:
				_, _, _ = DecodeSteerPayload(payload)
			case FrameHello:
				_, _ = decodeHello(payload)
			case FrameWelcome:
				_, _ = decodeWelcome(payload)
			}
		}
		if cap(fr.buf) > maxPayload {
			t.Fatalf("reader buffer grew to %d, past the %d max", cap(fr.buf), maxPayload)
		}
	})
}

// FuzzCodecDecode hammers the wire-codec decoder with arbitrary compressed
// bodies: corrupt DEFLATE streams, truncations, and bodies inflating past
// the configured bound must all return errors — never panic — and the
// inflate buffer must never balloon past the bound regardless of what the
// (attacker-controlled) stream claims or contains.
func FuzzCodecDecode(f *testing.F) {
	// Seed with real encoder output: keyframes and mid-chain deltas for
	// both compressing codecs, plus corrupt and truncated variants.
	step0 := make([]byte, 1024)
	step1 := make([]byte, 1024)
	for i := range step0 {
		step0[i] = byte(i * 7)
		step1[i] = byte(i*7 + i/64) // small drift, like consecutive steps
	}
	for _, id := range []uint8{CodecFlate, CodecDelta} {
		enc := newCodecEncoder(id, nil)
		b0, _, err := enc.encode(nil, step0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(id, true, append([]byte(nil), b0...))
		b1, key1, err := enc.encode(nil, step1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(id, key1, append([]byte(nil), b1...))
		corrupt := append([]byte(nil), b1...)
		corrupt[len(corrupt)/2] ^= 0x40
		f.Add(id, key1, corrupt)
		f.Add(id, true, b0[:len(b0)/2])
		enc.close()
	}
	f.Add(uint8(CodecFlate), true, []byte{})
	// The plane codec's body, shape by shape: every plane raw, every plane
	// in the stream, some of each; a stream that inflates to a plane too few;
	// a header claiming more than the bound, and more than the body holds;
	// a delta whose length is not the reference's.
	planes := make([][]byte, 8)
	for j := range planes {
		planes[j] = bytes.Repeat([]byte{byte(j), byte(3 * j)}, 16)
	}
	f.Add(uint8(CodecDelta), true, deltaBody(8*32+2, 0x00, []byte("ab"), planes, nil))
	f.Add(uint8(CodecDelta), true, deltaBody(8*32, 0xFF, nil, nil, deflated(f, planes...)))
	f.Add(uint8(CodecDelta), true, deltaBody(8*32+7, 0xA5, []byte("seven b"),
		[][]byte{planes[1], planes[3], planes[4], planes[6]}, deflated(f, planes[0], planes[2], planes[5], planes[7])))
	f.Add(uint8(CodecDelta), true, deltaBody(8*32, 0xF0, nil, planes[:4], deflated(f, planes[4:7]...)))
	f.Add(uint8(CodecDelta), true, deltaBody(MaxPayload, 0xFF, nil, nil, deflated(f, planes...)))
	f.Add(uint8(CodecDelta), true, deltaBody(1<<16, 0x00, nil, planes, nil))
	f.Add(uint8(CodecDelta), false, deltaBody(8*16, 0x00, nil, planes, nil))

	f.Fuzz(func(t *testing.T, id uint8, keyframe bool, body []byte) {
		if id != CodecFlate {
			id = CodecDelta
		}
		const max = 1 << 16
		d := newCodecDecoder(id, max, nil)
		defer d.close()
		// Two passes: the second decodes with a previous-step reference in
		// place (when the first succeeded), covering the delta-XOR path.
		for pass := 0; pass < 2; pass++ {
			out, err := d.decode(body, keyframe)
			if err == nil && len(out) > max {
				t.Fatalf("decoded %d bytes past the %d bound", len(out), max)
			}
			if cap(d.infl) > max+growStep {
				t.Fatalf("inflate buffer grew to %d, past the %d bound", cap(d.infl), max)
			}
			if err != nil && keyframe && len(d.ref) > 0 && pass == 0 {
				t.Fatalf("a refused keyframe left a %d-byte reference", len(d.ref))
			}
		}
	})
}
