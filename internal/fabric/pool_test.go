package fabric

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestStagedStepCycleAllocatesNothing: in steady state one staged step —
// Client.Send's retained copy, the coded frame, the hub's decode and
// Delivery copy, the release and the credit's way back, and the frame
// header each side reads — allocates nothing on either side of the fabric.
// The wire is tcp because a net.Pipe allocates a timer for every write
// deadline.
func TestStagedStepCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	lis, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 1, Codecs: []uint8{CodecDelta}})
	defer func() { _ = hub.Close() }()
	o := loopbackClient(lis.Addr().String(), 0, 1, 1, 1)
	o.Network, o.heartbeat = "tcp", time.Hour // no probe in the measured window
	c := DialWriter(o)
	defer func() { _ = c.Close() }()

	steps := [2][]byte{bytes.Repeat([]byte{1, 2, 3, 4, 0, 0, 0, 0}, 4096), bytes.Repeat([]byte{4, 3, 2, 1, 0, 0, 0, 0}, 4096)}
	i := 0
	cycle := func() {
		if err := c.Send(i, steps[i%2]); err != nil {
			t.Fatal(err)
		}
		d := <-hub.Deliveries(0)
		if d.Step != i || !bytes.Equal(d.Payload, steps[i%2]) {
			t.Fatalf("step %d: delivery differs from what was sent", i)
		}
		d.Release()
		i++
	}
	for i < 4 {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("%.0f allocs per staged step, want 0", n)
	}
	if err := c.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPooledPendingFrameSurvivesRedial: a pending step's container stays the
// client's until its release, whatever happens to the connection that first
// carried it. Connections die mid-frame while both sides churn the shared
// pool; every step must still arrive once, in order, byte for byte — a
// container pooled early would be overwritten by the next Send or the hub's
// next Delivery before its retransmit read it (and under -race, flagged).
func TestPooledPendingFrameSurvivesRedial(t *testing.T) {
	addr := t.Name()
	lis, err := Listen("loopback", addr)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 2, Codecs: []uint8{CodecDelta}})
	defer func() { _ = hub.Close() }()

	// Write 1 is the Hello; every death adds a Hello and the retransmits.
	script := &chaosScript{
		kill:  map[int]bool{4: true, 17: true},
		short: map[int]bool{9: true, 23: true},
		eat:   map[int]bool{13: true},
	}
	o := loopbackClient(addr, 0, 1, 1, 2)
	o.WrapConn = script.wrap
	c := DialWriter(o)
	defer func() { _ = c.Close() }()

	const steps = 24
	done := make(chan error, 1)
	go func() {
		for step := 0; step < steps; step++ {
			if err := c.Send(step, smoothPayload(step, 512)); err != nil {
				done <- err
				return
			}
		}
		done <- c.Drain(10 * time.Second)
	}()
	// Hold each delivery, unreleased, until the next one is in hand: a death
	// then always finds a delivered step and a queued one pending.
	var held Delivery
	for step := 0; step < steps; step++ {
		select {
		case d := <-hub.Deliveries(0):
			if d.Step != step || !bytes.Equal(d.Payload, smoothPayload(step, 512)) {
				t.Fatalf("delivery of step %d differs from step %d as sent", d.Step, step)
			}
			held.Release()
			held = d
		case <-time.After(15 * time.Second):
			t.Fatalf("no delivery for step %d", step)
		}
	}
	held.Release()
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	st := c.stats
	if st.Reconnects.Value() < 5 || st.Retransmits.Value() == 0 {
		t.Fatalf("reconnects %d, retransmits %d: the script's deaths did not happen", st.Reconnects.Value(), st.Retransmits.Value())
	}
}

// TestStagedBuffersSurviveCollections: the buffers a staged step borrows
// belong to the client and the hub, not to the collector. Twenty send →
// deliver → release cycles on tcp, each after forced collections, together
// allocate less than one payload; a pool that a collection empties makes the
// client's copy, the codec's buffers and the hub's delivery copy afresh every
// cycle.
func TestStagedBuffersSurviveCollections(t *testing.T) {
	lis, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 2, Codecs: []uint8{CodecDelta}})
	defer func() { _ = hub.Close() }()
	o := loopbackClient(lis.Addr().String(), 0, 1, 1, 2)
	o.Network, o.heartbeat = "tcp", time.Hour // no probe in the measured window
	c := DialWriter(o)
	defer func() { _ = c.Close() }()

	const payload = 256 << 10
	var steps [4][]byte
	for k := range steps {
		steps[k] = smoothPayload(k, payload/8)
	}
	i := 0
	cycle := func() {
		if err := c.Send(i, steps[i%4]); err != nil {
			t.Fatal(err)
		}
		d := <-hub.Deliveries(0)
		if d.Step != i || len(d.Payload) != payload {
			t.Fatalf("step %d: delivery of step %d, %d bytes", i, d.Step, len(d.Payload))
		}
		d.Release()
		i++
	}
	for i < 4 {
		cycle()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for n := 0; n < 20; n++ {
		runtime.GC()
		runtime.GC()
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= payload {
		t.Errorf("20 collected cycles allocated %d bytes, want under one %d-byte payload", got, payload)
	}
	if err := c.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
