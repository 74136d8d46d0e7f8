package fabric

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// benchAddrSeq keeps loopback names unique across benchmark iterations
// (the registry frees a name only on listener close).
var benchAddrSeq atomic.Int64

// benchWire stands up a 1-writer/1-reader hub+client pair on the given
// network and returns them with a cleanup function.
func benchWire(b *testing.B, network string, depth, payload int) (*Client, *Hub, func()) {
	b.Helper()
	addr := fmt.Sprintf("bench-%d", benchAddrSeq.Add(1))
	if network == "tcp" {
		addr = "127.0.0.1:0"
	}
	lis, err := Listen(network, addr)
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	if network == "tcp" {
		addr = lis.Addr().String()
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: depth})
	c := DialWriter(ClientOptions{
		Network: network, Addr: addr,
		Rank: 0, Writers: 1, Readers: 1, Depth: depth,
		RetryWindow: 30 * time.Second,
		heartbeat:   -1, // off over tcp too: the benchmark times the wire, not keepalives
	})
	_ = payload
	return c, hub, func() {
		_ = c.Close()
		_ = hub.Close()
	}
}

// benchStaging measures sustained one-way staging throughput: the writer
// pushes fixed-size steps as fast as flow control admits while the
// endpoint side releases every delivery immediately (an infinitely fast
// analysis). ns/op is the per-step wire cost; with SetBytes the harness
// also reports MB/s.
func benchStaging(b *testing.B, network string, depth, payload int) {
	c, hub, done := benchWire(b, network, depth, payload)
	defer done()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case d := <-hub.Deliveries(0):
				d.Release()
			case <-stop:
				return
			}
		}
	}()
	buf := make([]byte, payload)
	b.SetBytes(int64(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(i, buf); err != nil {
			b.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Drain(30 * time.Second); err != nil {
		b.Fatalf("drain: %v", err)
	}
	b.StopTimer()
	close(stop)
}

func BenchmarkStagingLoopbackDepth1(b *testing.B) { benchStaging(b, "loopback", 1, 1<<20) }
func BenchmarkStagingLoopbackDepth4(b *testing.B) { benchStaging(b, "loopback", 4, 1<<20) }
func BenchmarkStagingTCPDepth1(b *testing.B)      { benchStaging(b, "tcp", 1, 1<<20) }
func BenchmarkStagingTCPDepth4(b *testing.B)      { benchStaging(b, "tcp", 4, 1<<20) }

// benchAdvance measures the step-boundary round trip (Advance → ack) with
// an empty pipeline, reporting the p99 over all iterations — the latency a
// simulation pays at every step boundary in the paper's time-division
// model.
func benchAdvance(b *testing.B, network string) {
	c, hub, done := benchWire(b, network, 1, 0)
	defer done()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case d := <-hub.Deliveries(0):
				d.Release()
			case <-stop:
				return
			}
		}
	}()
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := c.Advance(i); err != nil {
			b.Fatalf("advance %d: %v", i, err)
		}
		samples = append(samples, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p99 := samples[len(samples)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
}

func BenchmarkAdvanceLoopback(b *testing.B) { benchAdvance(b, "loopback") }
func BenchmarkAdvanceTCP(b *testing.B)      { benchAdvance(b, "tcp") }

// BenchmarkReconnectRecovery measures the writer's recovery time after an
// endpoint restart: from killing a hub holding one unreleased step to the
// restarted hub delivering the retransmission. Dominated by the redial
// backoff schedule, not the wire.
func BenchmarkReconnectRecovery(b *testing.B) {
	addr := fmt.Sprintf("bench-reconnect-%d", benchAddrSeq.Add(1))
	lis, err := Listen("loopback", addr)
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	hub := NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 2})
	c := DialWriter(ClientOptions{
		Network: "loopback", Addr: addr,
		Rank: 0, Writers: 1, Readers: 1, Depth: 2,
		RetryWindow: 30 * time.Second,
	})
	defer func() { _ = c.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(i, []byte("in flight")); err != nil {
			b.Fatalf("send %d: %v", i, err)
		}
		<-hub.Deliveries(0) // delivered, never released: dies with the hub
		if err := hub.Close(); err != nil {
			b.Fatalf("hub close: %v", err)
		}
		lis, err = Listen("loopback", addr)
		if err != nil {
			b.Fatalf("re-listen: %v", err)
		}
		hub = NewHub(lis, HubOptions{Writers: 1, Readers: 1, Depth: 2})
		d := <-hub.Deliveries(0) // retransmission arrives
		d.Release()
	}
	b.StopTimer()
	_ = hub.Close()
}
