package fabric

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// smoothPayload builds a step payload resembling a staged container:
// float64 fields that drift a little between steps, which is what the delta
// codec exploits.
func smoothPayload(step, n int) []byte {
	b := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i)*0.01) + float64(step)*1e-6
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// TestNegotiatedCodecStaging stages steps through every codec and asserts
// the deliveries are bit-identical to what was sent, and that the odometer
// records a genuine wire reduction for the compressing codecs.
func TestNegotiatedCodecStaging(t *testing.T) {
	for _, codec := range []uint8{CodecRaw, CodecFlate, CodecDelta} {
		codec := codec
		t.Run(CodecName(codec), func(t *testing.T) {
			addr := t.Name()
			lis, err := Listen("loopback", addr)
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 2, Codecs: []uint8{codec}})
			defer func() { _ = hub.Close() }()
			c := DialWriter(loopbackClient(addr, 0, 1, 1, 2))
			defer func() { _ = c.Close() }()

			got, _, err := c.Negotiated()
			if err != nil {
				t.Fatalf("negotiated: %v", err)
			}
			if got != codec {
				t.Fatalf("negotiated %s, hub prefers %s", CodecName(got), CodecName(codec))
			}

			const steps = 5
			payloads := make([][]byte, steps)
			for s := 0; s < steps; s++ {
				payloads[s] = smoothPayload(s, 4096)
				if err := c.Send(s, payloads[s]); err != nil {
					t.Fatalf("send %d: %v", s, err)
				}
				d := <-hub.Deliveries(0)
				if d.Step != s || !bytes.Equal(d.Payload, payloads[s]) {
					t.Fatalf("step %d: delivery differs from what was sent", s)
				}
				d.Release()
			}
			if err := c.Drain(5 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
			st := c.stats
			logical, wire := st.DataBytesLogical.Value(), st.DataBytesWire.Value()
			if logical == 0 || wire == 0 {
				t.Fatalf("odometer not advanced: logical %d wire %d", logical, wire)
			}
			if codec == CodecRaw && logical != wire {
				t.Fatalf("raw: logical %d != wire %d", logical, wire)
			}
			// Flate alone barely moves float64 payloads (random mantissa
			// bytes); the reduction claim is the delta codec's, whose
			// XOR+shuffle turns the drift between steps into zero runs.
			if codec == CodecDelta && wire >= logical {
				t.Fatalf("delta: no reduction (logical %d, wire %d)", logical, wire)
			}
			// Both odometers must agree end to end.
			hs := hub.stats
			if hs.DataBytesLogical.Value() != logical || hs.DataBytesWire.Value() != wire {
				t.Fatalf("hub odometer %d/%d, client %d/%d",
					hs.DataBytesLogical.Value(), hs.DataBytesWire.Value(), logical, wire)
			}
		})
	}
}

// TestDeltaCodecRidesOutEndpointRestart is the delta-chain reset contract:
// an endpoint dies mid-chain holding an unreleased step, and after the
// reconnect the retransmits must decode bit-identical on the restarted
// endpoint — which has no previous-step reference, so the writer's fresh
// epoch must keyframe first.
func TestDeltaCodecRidesOutEndpointRestart(t *testing.T) {
	addr := t.Name()
	newDeltaHub := func() *Hub {
		lis, err := Listen("loopback", addr)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 2, Codecs: []uint8{CodecDelta}})
	}
	hub := newDeltaHub()
	c := DialWriter(loopbackClient(addr, 0, 1, 1, 2))
	defer func() { _ = c.Close() }()

	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = smoothPayload(i, 2048)
	}

	// Steps 0 and 1 flow normally (1+ is a delta frame); step 1 is
	// delivered but never executed — the endpoint dies holding it.
	for s := 0; s < 2; s++ {
		if err := c.Send(s, payloads[s]); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
	}
	d := <-hub.Deliveries(0)
	if !bytes.Equal(d.Payload, payloads[0]) {
		t.Fatal("step 0 delivery differs")
	}
	d.Release()
	if err := c.Drain(5 * time.Second); err == nil {
		// step 1 may still be pending; only step 0's release matters here.
		_ = err
	}
	<-hub.Deliveries(0) // step 1 accepted, not released
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}

	// Restarted endpoint: fresh decoder, no reference. Step 1 retransmits
	// (re-encoded as a keyframe by the fresh writer epoch), then new steps
	// continue the new chain.
	hub2 := newDeltaHub()
	defer func() { _ = hub2.Close() }()
	d = <-hub2.Deliveries(0)
	if d.Step != 1 || !bytes.Equal(d.Payload, payloads[1]) {
		t.Fatalf("after restart: step %d, payload identical=%v", d.Step, bytes.Equal(d.Payload, payloads[1]))
	}
	d.Release()
	for s := 2; s < 4; s++ {
		if err := c.Send(s, payloads[s]); err != nil {
			t.Fatalf("send %d after restart: %v", s, err)
		}
		d = <-hub2.Deliveries(0)
		if d.Step != s || !bytes.Equal(d.Payload, payloads[s]) {
			t.Fatalf("step %d after restart differs", s)
		}
		d.Release()
	}
	if err := c.Drain(5 * time.Second); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if got := c.stats.Reconnects.Value(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
}

// TestExtractNegotiation: the hub hands its extract spec only to writers
// that declared the capability.
func TestExtractNegotiation(t *testing.T) {
	addr := t.Name()
	lis, err := Listen("loopback", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	spec := ExtractSpec{Kind: ExtractHistogram, Assoc: 1, Bins: 32, Array: "data"}
	hub := NewHub(lis, HubOptions{Writers: 2, Readers: 1, Depth: 1, Codecs: []uint8{CodecFlate}, Extract: &spec})
	defer func() { _ = hub.Close() }()

	capable := loopbackClient(addr, 0, 2, 1, 1)
	capable.ExtractCapable = true
	c0 := DialWriter(capable)
	defer func() { _ = c0.Close() }()
	_, ext, err := c0.Negotiated()
	if err != nil {
		t.Fatalf("negotiated: %v", err)
	}
	if ext != spec {
		t.Fatalf("capable writer got extract %+v, want %+v", ext, spec)
	}

	c1 := DialWriter(loopbackClient(addr, 1, 2, 1, 1))
	defer func() { _ = c1.Close() }()
	_, ext, err = c1.Negotiated()
	if err != nil {
		t.Fatalf("negotiated: %v", err)
	}
	if ext.Kind != 0 {
		t.Fatalf("incapable writer got extract %+v", ext)
	}
}
