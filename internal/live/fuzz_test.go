package live

import (
	"bytes"
	"testing"
)

// FuzzFramePayloadDecode hardens the wire decoder against adversarial
// payloads: no panic, no allocation beyond the input's own length, and an
// exact re-encode round trip for everything it accepts (the decoder is a
// bijection on its accepted set — required for the byte-identical fan-out
// guarantee). A viewer decodes into recycled frames, so every input is also
// decoded into a frame a longer and a shorter payload filled first: each
// must equal the fresh decode, with no stale tail and no alias of the input.
func FuzzFramePayloadDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(appendFramePayload(nil, Frame{Step: 7, Width: 32, Height: 16, PNG: []byte("png bytes")}))
	f.Add(appendFramePayload(nil, Frame{Step: -1, Width: 0, Height: 0, PNG: nil}))
	f.Add(bytes.Repeat([]byte{0xff}, framePayloadHeader))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var fr Frame
		if err := decodeFramePayload(&fr, payload); err != nil {
			if len(payload) >= framePayloadHeader {
				t.Fatalf("well-sized payload rejected: %v", err)
			}
			return
		}
		png := len(payload) - framePayloadHeader
		if got := len(fr.PNG); got != png {
			t.Fatalf("decoded %d PNG bytes from a %d-byte payload, want %d", got, len(payload), png)
		}
		if enc := appendFramePayload(nil, fr); !bytes.Equal(enc, payload) {
			t.Fatalf("re-encode diverged:\n in %x\nout %x", payload, enc)
		}

		longer := Frame{Step: 1 << 40, Width: 9, Height: 9, PNG: bytes.Repeat([]byte{0xee}, png+7)}
		shorter := Frame{Step: -3, Width: 1, Height: 2, PNG: bytes.Repeat([]byte{0x5a}, png/2)}
		decoded := []Frame{fr}
		for _, prev := range []Frame{longer, shorter} {
			var re Frame
			if err := decodeFramePayload(&re, appendFramePayload(nil, prev)); err != nil {
				t.Fatalf("filling the recycled frame: %v", err)
			}
			if err := decodeFramePayload(&re, payload); err != nil {
				t.Fatalf("recycled decode rejected an accepted payload: %v", err)
			}
			if re.Step != fr.Step || re.Width != fr.Width || re.Height != fr.Height || !bytes.Equal(re.PNG, fr.PNG) {
				t.Fatalf("recycled decode over a %d-byte PNG diverged from the fresh one", len(prev.PNG))
			}
			decoded = append(decoded, re)
		}

		// No decoded frame may alias the input: corrupting the input
		// afterwards (a reused read buffer) must not reach it.
		if png > 0 {
			saved := payload[framePayloadHeader]
			payload[framePayloadHeader] ^= 0xa5
			for _, d := range decoded {
				if d.PNG[0] != saved {
					t.Fatal("decoded PNG aliases the wire buffer")
				}
			}
			payload[framePayloadHeader] ^= 0xa5
		}
	})
}
