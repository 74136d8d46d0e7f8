package adios

import (
	"fmt"
	"io"
	"time"

	"gosensei/internal/core"
	"gosensei/internal/fabric"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("adios", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		if attrs.Choice("transport", "bp-file", "bp-file", "flexpath") == 0 {
			w := NewWriter(b.Comm, &BPFileTransport{Dir: attrs.String("dir", "adios-out")})
			w.Registry, w.Memory = b.Registry, b.Memory
			return w, nil
		}
		// The simulation half of the two-executable deployment. The
		// endpoint's geometry is 1:1 with this world and every codec is on
		// offer; the wire is dialed at the first step, so building the
		// writer needs no listener.
		endpoint := attrs.String("endpoint", "")
		if endpoint == "" {
			return nil, fmt.Errorf("attribute %q: a flexpath writer needs the endpoint's host:port", "endpoint")
		}
		opts := WireOptions{
			Network: "tcp", Addr: endpoint,
			Writers: b.Comm.Size(), Readers: b.Comm.Size(), Depth: attrs.Int("depth", 1, 1),
			RetryWindow: time.Duration(attrs.Int("retry-window", 0, 0)) * time.Second,
		}
		// The run's fabric faults fire on this writer's connections.
		if fp := b.Faults.FabricPlan(); fp != nil {
			opts.WrapConn = fp.WrapConn
		}
		t, err := DialWire(opts)
		if err != nil {
			return nil, err
		}
		w := NewWriter(b.Comm, t)
		w.Registry, w.Memory = b.Registry, b.Memory
		return &wireWriter{Writer: w, endpoint: endpoint, stats: t.Stats()}, nil
	})
}

// wireWriter is the configured in transit writer: a Writer over its own wire
// whose Finalize adds the ranks' wire counters up on rank 0, for Report.
type wireWriter struct {
	*Writer
	endpoint string
	stats    *fabric.Stats
	totals   [4]int64 // logical, wire, retransmits, reconnects; rank 0, after Finalize
}

// Finalize implements core.AnalysisAdaptor. The sum runs whether or not this
// rank's stream closed cleanly: the other ranks are waiting in it.
func (w *wireWriter) Finalize() error {
	err := w.Writer.Finalize()
	s := w.stats
	local := []int64{s.DataBytesLogical.Value(), s.DataBytesWire.Value(), s.Retransmits.Value(), s.Reconnects.Value()}
	if w.Comm == nil {
		copy(w.totals[:], local)
	} else if rerr := mpi.Reduce(w.Comm, local, w.totals[:], mpi.OpSum, 0); err == nil {
		err = rerr
	}
	return err
}

// Report implements core.Reporter: what crossed the wire, over all ranks.
func (w *wireWriter) Report(out io.Writer) {
	fmt.Fprintf(out, "adios flexpath to %s: data bytes %d logical / %d wire, retransmits %d, reconnects %d\n",
		w.endpoint, w.totals[0], w.totals[1], w.totals[2], w.totals[3])
}
