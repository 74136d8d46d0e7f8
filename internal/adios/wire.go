package adios

import (
	"fmt"
	"sync"
	"time"

	"gosensei/internal/fabric"
	"gosensei/internal/mpi"
)

// WireOptions configures the writer-process side of a two-process fabric.
type WireOptions struct {
	// Network/Addr locate the endpoint process ("tcp" + host:port as printed
	// by ListenFabric's Addr, or "loopback" + name for tests).
	Network, Addr string
	// Writers/Readers/Depth must match the endpoint's geometry.
	Writers, Readers, Depth int
	// RetryWindow is how long a writer rides out a dead endpoint before
	// erroring — the budget for an endpoint restart mid-run. 0 selects the
	// fabric default (15s).
	RetryWindow time.Duration
	// DrainWindow bounds Close's wait for the endpoint to consume
	// everything outstanding. 0 selects 60s.
	DrainWindow time.Duration
	// Codecs is the bitmask of wire codecs (1 << fabric.Codec*) this writer
	// offers the endpoint; 0 offers all of them. The endpoint picks per its
	// own preference, raw being the universal fallback.
	Codecs uint32
	// Stats receives the writer-side wire counters; nil allocates a set.
	Stats *fabric.Stats
	// WrapConn decorates each freshly dialed connection (the fault-injection
	// seam, forwarded to fabric.ClientOptions.WrapConn); nil disables it.
	WrapConn func(rank int, conn fabric.Conn) fabric.Conn
}

// WireTransport is the ADIOS staging transport for a writer group whose
// endpoint lives in another OS process: WriteStep frames each serialized
// step onto a TCP connection under queue-depth credits, and Close drains —
// waits for the endpoint to acknowledge execution of every staged step —
// before tearing the connection down. If the endpoint dies mid-run the
// writers buffer unacknowledged steps (bounded by the queue depth, i.e.
// backpressure), redial with backoff, and retransmit.
type WireTransport struct {
	o     WireOptions
	stats *fabric.Stats

	mu      sync.Mutex
	clients map[int]*fabric.Client
}

// DialWire creates the transport. Connections are dialed lazily per writer
// rank on first use.
func DialWire(o WireOptions) (*WireTransport, error) {
	if o.Writers <= 0 || o.Readers <= 0 || o.Depth <= 0 || o.Writers < o.Readers {
		return nil, fmt.Errorf("adios: invalid wire geometry writers=%d readers=%d depth=%d",
			o.Writers, o.Readers, o.Depth)
	}
	if o.DrainWindow == 0 {
		o.DrainWindow = 60 * time.Second
	}
	if o.Stats == nil {
		o.Stats = &fabric.Stats{}
	}
	return &WireTransport{o: o, stats: o.Stats, clients: map[int]*fabric.Client{}}, nil
}

// Stats returns the writer-side wire counters (shared by all ranks).
func (t *WireTransport) Stats() *fabric.Stats { return t.stats }

func (t *WireTransport) client(rank int) *fabric.Client {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.clients[rank]
	if c == nil {
		c = fabric.DialWriter(fabric.ClientOptions{
			Network: t.o.Network, Addr: t.o.Addr,
			Rank: rank, Writers: t.o.Writers, Readers: t.o.Readers, Depth: t.o.Depth,
			RetryWindow:    t.o.RetryWindow,
			Codecs:         t.o.Codecs,
			ExtractCapable: true,
			Stats:          t.stats,
			WrapConn:       t.o.WrapConn,
		})
		t.clients[rank] = c
	}
	return c
}

// Negotiated implements extract negotiation for the staging Writer,
// blocking until the rank's first handshake completes.
func (t *WireTransport) Negotiated(rank int) (fabric.ExtractSpec, error) {
	_, ext, err := t.client(rank).Negotiated()
	return ext, err
}

// WriteStep implements Transport; it blocks while the rank's queue-depth
// credits are exhausted.
func (t *WireTransport) WriteStep(rank int, payload []byte, step int) error {
	return t.client(rank).Send(step, payload)
}

// Advance implements Transport: the writer group synchronizes metadata (a
// small collective), then rank 0 publishes the step to the endpoint and
// waits for its acknowledgement — adios::advance as a real round trip.
func (t *WireTransport) Advance(c *mpi.Comm, step int) error {
	rank := 0
	if c != nil {
		rank = c.Rank()
		meta := []int64{int64(step)}
		recv := make([]int64, 1)
		if err := mpi.Allreduce(c, meta, recv, mpi.OpMax); err != nil {
			return err
		}
	}
	if rank != 0 {
		return nil
	}
	return t.client(0).Advance(step)
}

// Close implements Transport: stage EOS, wait for the endpoint to consume
// everything (release-after-execute makes this an execution barrier, not
// just a flush), then drop the connection.
func (t *WireTransport) Close(rank int) error {
	c := t.client(rank)
	if err := c.SendEOS(); err != nil {
		return err
	}
	if err := c.Drain(t.o.DrainWindow); err != nil {
		return err
	}
	return c.Close()
}
