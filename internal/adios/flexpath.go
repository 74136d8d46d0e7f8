package adios

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/extracts"
	"gosensei/internal/fabric"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

// Fabric is the FlexPath-like staging layer connecting a group of N writers
// to a group of M analysis readers. FlexPath "can support same-node,
// multi-node, or even multi-machine deployment configurations"; the paper's
// Cori runs used the 1:1 hyperthread pairing (N == M), while in transit
// deployments drain many simulation ranks into a smaller analysis
// allocation (N > M). Writers map to readers in contiguous blocks.
//
// Since PR 3 the fabric is a real wire: every message crosses an
// internal/fabric connection — length-prefixed CRC-checked frames under
// credit flow control — whether the two groups share a process (the
// "loopback" network) or sit in separate OS processes connected over TCP
// (ListenFabric + DialWire). A writer
// blocks in adios::analysis when its queue-depth credits are exhausted —
// the backpressure the paper's Fig. 8 timings include — and the endpoint
// releases a credit only after executing the step, so an endpoint restart
// loses nothing.
type Fabric struct {
	nWriters, nReaders, depth int
	network, addr             string
	hub                       *fabric.Hub
	stats                     *fabric.Stats
	extract                   *fabric.ExtractSpec

	mu       sync.Mutex
	clients  map[int]*fabric.Client
	wrapConn func(rank int, conn fabric.Conn) fabric.Conn
}

// FabricOption tunes the endpoint side of a fabric at creation.
type FabricOption func(*fabricConfig)

type fabricConfig struct {
	codecs  []uint8
	extract *fabric.ExtractSpec
}

// WithCodecs sets the endpoint's wire-codec preference, most preferred
// first; the first codec a dialing writer also supports wins, raw being the
// universal fallback. Without this option every connection stages raw.
func WithCodecs(ids ...uint8) FabricOption {
	return func(c *fabricConfig) { c.codecs = ids }
}

// WithExtract asks extract-capable writers to ship the given reduced
// product instead of full containers — the bandwidth floor of the staging
// ladder. Writers that cannot compute the extract still ship containers.
func WithExtract(spec fabric.ExtractSpec) FabricOption {
	return func(c *fabricConfig) { c.extract = &spec }
}

// ListenFabric creates the endpoint side of a fabric on an explicit
// network/address — "tcp" with host:port for a two-process deployment (the
// endpoint OS process listens; writers connect with DialWire), or
// "loopback" with a unique name for in-process use. The returned fabric
// accepts writer connections immediately.
func ListenFabric(network, addr string, nWriters, nReaders, depth int, opts ...FabricOption) (*Fabric, error) {
	if nWriters <= 0 || nReaders <= 0 || depth <= 0 || nWriters < nReaders {
		return nil, fmt.Errorf("adios: invalid fabric writers=%d readers=%d depth=%d", nWriters, nReaders, depth)
	}
	var cfg fabricConfig
	for _, o := range opts {
		o(&cfg)
	}
	lis, err := fabric.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	stats := &fabric.Stats{}
	hub := fabric.NewHub(lis, fabric.HubOptions{
		Writers: nWriters, Readers: nReaders, Depth: depth,
		Stats:  stats,
		Codecs: cfg.codecs, Extract: cfg.extract,
	})
	return &Fabric{
		nWriters: nWriters, nReaders: nReaders, depth: depth,
		network: network, addr: lis.Addr().String(),
		hub: hub, stats: stats, extract: cfg.extract,
		clients: map[int]*fabric.Client{},
	}, nil
}

// Addr returns the address writers dial ("host:port" for tcp).
func (f *Fabric) Addr() string { return f.addr }

// SetConnWrapper installs a decorator for the writer-side connections (the
// fault-injection seam; see internal/faultline). It must be called before
// the first send — clients dial lazily and an already-dialed writer keeps
// its unwrapped connection.
func (f *Fabric) SetConnWrapper(w func(rank int, conn fabric.Conn) fabric.Conn) {
	f.mu.Lock()
	f.wrapConn = w
	f.mu.Unlock()
}

// Stats returns the endpoint-side wire counters.
func (f *Fabric) Stats() *fabric.Stats { return f.stats }

// Close drops every writer connection and stops accepting. Queued messages
// remain receivable.
func (f *Fabric) Close() error {
	f.mu.Lock()
	clients := make([]*fabric.Client, 0, len(f.clients))
	for _, c := range f.clients {
		clients = append(clients, c)
	}
	f.clients = map[int]*fabric.Client{}
	f.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	return f.hub.Close()
}

// Pairs returns the reader count (for the 1:1 case, the pair count).
func (f *Fabric) Pairs() int { return f.nReaders }

// ReaderOf returns the analysis rank that consumes a writer's stream.
func (f *Fabric) ReaderOf(writer int) int {
	return fabric.ReaderOf(writer, f.nWriters, f.nReaders)
}

// WritersOf returns the writer ranks feeding one reader.
func (f *Fabric) WritersOf(reader int) []int {
	var out []int
	for w := 0; w < f.nWriters; w++ {
		if f.ReaderOf(w) == reader {
			out = append(out, w)
		}
	}
	return out
}

// client returns (dialing lazily) the in-process wire client for a writer
// rank.
func (f *Fabric) client(writer int) *fabric.Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.clients[writer]
	if c == nil {
		c = fabric.DialWriter(fabric.ClientOptions{
			Network: f.network, Addr: f.addr,
			Rank: writer, Writers: f.nWriters, Readers: f.nReaders, Depth: f.depth,
			ExtractCapable: true,
			WrapConn:       f.wrapConn,
		})
		f.clients[writer] = c
	}
	return c
}

// Transport is the ADIOS service interface: "only a tweak to the input
// parameters is needed to swap methods". Both the staging and file
// transports implement it.
type Transport interface {
	// WriteStep ships one serialized step.
	WriteStep(rank int, payload []byte, step int) error
	// Advance publishes step metadata (a group-wide exchange).
	Advance(c *mpi.Comm, step int) error
	// Close ends the stream.
	Close(rank int) error
}

// FlexPathTransport stages steps through a Fabric.
type FlexPathTransport struct {
	Fabric *Fabric
}

// Name implements Transport.
func (t *FlexPathTransport) Name() string { return "flexpath" }

// WriteStep implements Transport; it blocks on reader backpressure (the
// writer's queue-depth credits exhausted).
func (t *FlexPathTransport) WriteStep(rank int, payload []byte, step int) error {
	return t.Fabric.client(rank).Send(step, payload)
}

// Advance implements Transport: the writer group synchronizes metadata (a
// small collective), the adios::advance phase of Fig. 8.
func (t *FlexPathTransport) Advance(c *mpi.Comm, step int) error {
	if c == nil {
		return nil
	}
	meta := []int64{int64(step)}
	recv := make([]int64, 1)
	return mpi.Allreduce(c, meta, recv, mpi.OpMax)
}

// Close implements Transport. It stages the end-of-stream marker without
// waiting for the endpoint to consume it.
func (t *FlexPathTransport) Close(rank int) error {
	return t.Fabric.client(rank).SendEOS()
}

// Negotiated implements extract negotiation for the staging Writer: the
// endpoint's Welcome names the reduced product (if any) this writer should
// ship instead of full containers.
func (t *FlexPathTransport) Negotiated(rank int) (fabric.ExtractSpec, error) {
	_, ext, err := t.Fabric.client(rank).Negotiated()
	return ext, err
}

// BPFileTransport writes one BP file per (step, rank) under Dir — the
// traditional post hoc path through the same API.
type BPFileTransport struct {
	Dir string
}

// WriteStep implements Transport.
func (t *BPFileTransport) WriteStep(rank int, payload []byte, step int) error {
	if err := os.MkdirAll(t.Dir, 0o755); err != nil {
		return fmt.Errorf("adios: %w", err)
	}
	path := filepath.Join(t.Dir, fmt.Sprintf("step%05d_rank%05d.bp", step, rank))
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		return fmt.Errorf("adios: %w", err)
	}
	return nil
}

// Advance implements Transport.
func (t *BPFileTransport) Advance(c *mpi.Comm, step int) error {
	if c == nil {
		return nil
	}
	return c.Barrier()
}

// Close implements Transport.
func (t *BPFileTransport) Close(rank int) error { return nil }

// Writer is the simulation-side SENSEI analysis adaptor: executing it
// serializes the current step (a buffer copy — FlexPath is not zero-copy)
// and ships it through the transport. Timing events follow the paper's
// naming: "adios::advance" and "adios::analysis".
type Writer struct {
	Comm      *mpi.Comm
	Transport Transport
	Registry  *metrics.Registry
	Memory    *metrics.Tracker

	// encBuf is the reusable serialization buffer: transports copy the
	// payload before returning (Client.Send buffers for retransmit, the file
	// transport writes synchronously), so one buffer per writer amortizes
	// the per-step allocation the old EncodeStep call paid.
	encBuf []byte
	// negotiated caches the transport's one-time extract negotiation.
	negotiated bool
	extract    fabric.ExtractSpec
}

// extractNegotiator is implemented by transports whose endpoint can ask for
// a reduced product in place of full containers.
type extractNegotiator interface {
	Negotiated(rank int) (fabric.ExtractSpec, error)
}

// NewWriter builds a writer over a transport.
func NewWriter(c *mpi.Comm, t Transport) *Writer {
	return &Writer{Comm: c, Transport: t}
}

// Execute implements core.AnalysisAdaptor.
func (w *Writer) Execute(d core.DataAdaptor) (bool, error) {
	mesh, err := core.FetchAll(d)
	if err != nil {
		return false, err
	}
	img, ok := mesh.(*grid.ImageData)
	if !ok {
		return false, fmt.Errorf("adios: staging supports structured data, got %v", mesh.Kind())
	}
	step, rank := d.TimeStep(), w.Comm.Rank()
	w.Registry = metrics.OrNew(w.Registry, rank)
	// One-time extract negotiation: the endpoint's Welcome may ask for a
	// reduced product; the answer is stable for a fixed endpoint, so it is
	// cached for the run.
	if !w.negotiated {
		if neg, ok := w.Transport.(extractNegotiator); ok {
			ext, err := neg.Negotiated(rank)
			if err != nil {
				return false, err
			}
			w.extract = ext
		}
		w.negotiated = true
	}
	if err := w.timeAdvance(step); err != nil {
		return false, err
	}
	// adios::analysis: serialize (the non-zero-copy buffer) and ship,
	// including any blocking while the reader catches up.
	var sendErr error
	w.Registry.Time("adios::analysis", step, func() {
		var payload []byte
		payload, sendErr = w.encodeForWire(img, step, d.Time())
		if sendErr != nil {
			return
		}
		if w.Memory != nil {
			w.Memory.Alloc("adios/stage-buffer", int64(len(payload)))
			defer w.Memory.Free("adios/stage-buffer", int64(len(payload)))
		}
		sendErr = w.Transport.WriteStep(rank, payload, step)
	})
	return true, sendErr
}

// encodeForWire serializes what the negotiation says this writer owes the
// endpoint for one step: the full container, a pre-binned histogram
// partial, or a one-cell-thick slice slab (an empty marker when the plane
// misses this writer's block). The buffer is reused across steps.
func (w *Writer) encodeForWire(img *grid.ImageData, step int, time float64) ([]byte, error) {
	switch w.extract.Kind {
	case fabric.ExtractHistogram:
		h := analysis.NewHistogram(w.Comm, w.extract.Array, grid.Association(w.extract.Assoc), int(w.extract.Bins))
		lo, hi, err := h.GlobalRange(img)
		if err != nil {
			return nil, err
		}
		counts, err := h.PartialCounts(img, lo, hi)
		if err != nil {
			return nil, err
		}
		w.encBuf = extracts.AppendHistogramExtract(w.encBuf[:0],
			&extracts.HistogramPartial{Step: step, Time: time, Min: lo, Max: hi, Counts: counts})
	case fabric.ExtractSlice:
		slab := extracts.SlicePlane(img, int(w.extract.Axis), w.extract.Coord)
		if slab == nil {
			w.encBuf = extracts.AppendEmptyExtract(w.encBuf[:0], step, time)
		} else {
			w.encBuf = AppendStep(w.encBuf[:0], slab, step, time)
		}
	default:
		w.encBuf = AppendStep(w.encBuf[:0], img, step, time)
	}
	return w.encBuf, nil
}

func (w *Writer) timeAdvance(step int) error {
	var err error
	w.Registry.Time("adios::advance", step, func() {
		err = w.Transport.Advance(w.Comm, step)
	})
	return err
}

// Finalize implements core.AnalysisAdaptor: signals end of stream.
func (w *Writer) Finalize() error { return w.Transport.Close(w.Comm.Rank()) }

// StagedExtractAdaptor serves a merged histogram partial to endpoint
// analyses in extract-shipping mode. It implements
// analysis.StagedHistogramSource structurally, so the endpoint's Histogram
// short-circuits its mesh walk; there is no mesh to serve.
type StagedExtractAdaptor struct {
	core.BaseDataAdaptor
	Spec fabric.ExtractSpec
	Hist *extracts.HistogramPartial
	// Release, when set, runs in ReleaseData (core.StagedDataAdaptor's).
	Release func()
}

// StagedHistogram reports the merged partial when it matches the requested
// shape — the structural handshake with analysis.Histogram.Execute.
func (s *StagedExtractAdaptor) StagedHistogram(name string, assoc grid.Association, bins int) (min, max float64, counts []int64, ok bool) {
	if s.Hist == nil || name != s.Spec.Array ||
		uint8(assoc) != s.Spec.Assoc || bins != len(s.Hist.Counts) {
		return 0, 0, nil, false
	}
	return s.Hist.Min, s.Hist.Max, s.Hist.Counts, true
}

// Mesh implements core.DataAdaptor: extract mode ships no mesh.
func (s *StagedExtractAdaptor) Mesh(bool) (grid.Dataset, error) {
	return nil, fmt.Errorf("adios: extract-shipping step carries no mesh (only a %s extract)", "histogram")
}

// AddArray implements core.DataAdaptor.
func (s *StagedExtractAdaptor) AddArray(grid.Dataset, grid.Association, string) error {
	return fmt.Errorf("adios: extract-shipping step carries no arrays")
}

// ArrayNames implements core.DataAdaptor.
func (s *StagedExtractAdaptor) ArrayNames(grid.Association) ([]string, error) { return nil, nil }

// ReleaseData implements core.DataAdaptor.
func (s *StagedExtractAdaptor) ReleaseData() error {
	s.Hist = nil
	if s.Release != nil {
		s.Release()
	}
	return nil
}

// mergeHistogramPartial folds one writer's partial into the step's
// accumulator: exact min/max and exact int64 sums, the same reductions the
// raw path performs, so the merged result is bit-identical to binning the
// full data.
func mergeHistogramPartial(acc, p *extracts.HistogramPartial) (*extracts.HistogramPartial, error) {
	if acc == nil {
		return p, nil
	}
	if len(acc.Counts) != len(p.Counts) {
		return nil, fmt.Errorf("adios: histogram partials disagree on bins (%d vs %d)", len(acc.Counts), len(p.Counts))
	}
	if p.Min < acc.Min {
		acc.Min = p.Min
	}
	if p.Max > acc.Max {
		acc.Max = p.Max
	}
	for i := range acc.Counts {
		acc.Counts[i] += p.Counts[i]
	}
	return acc, nil
}

// Reader is one endpoint rank's data source: the steps its writers stage,
// served whole. Next receives until every feeding writer has delivered the
// next step — full containers, histogram partials or "nothing this step"
// markers, sniffed by magic and decoded under "endpoint::decode" — and
// serves it: the one block, a MultiBlock of a fan-in reader's blocks, or the
// merged histogram partial. A step on which every writer sent the empty
// marker is skipped here, its credits returned. A served step's credits
// return in its adaptor's ReleaseData, which the bridge calls after the
// analyses ran: an endpoint that dies mid-step never acknowledged the step,
// and its writers retransmit it. Next returns nil once every writer sent
// EOS.
type Reader struct {
	f       *Fabric
	rank    int
	writers []int
	reg     *metrics.Registry
	pending map[int]*stagedStep
	store   valueStore
	eos     int
	steps   int
	// cur is the step being served; blocks and hist are the adaptors that
	// serve it, reused across steps.
	cur    *stagedStep
	blocks core.StagedDataAdaptor
	hist   StagedExtractAdaptor
}

// stagedStep is what a reader holds of one step until it is complete.
type stagedStep struct {
	blocks map[int]*grid.ImageData
	hist   *extracts.HistogramPartial
	got    int               // messages received for the step, any payload kind
	dels   []fabric.Delivery // released once the step executed
	values [][]float64       // the blocks' arrays, on loan from the store
	time   float64
}

// Reader opens the source of endpoint rank rank, timing its decodes in reg.
func (f *Fabric) Reader(rank int, reg *metrics.Registry) *Reader {
	writers := f.WritersOf(rank)
	r := &Reader{
		f: f, rank: rank, writers: writers, reg: reg,
		pending: map[int]*stagedStep{},
		// Lent arrays peak as a step completes: one container of the writer
		// that completes it, and at most depth (its unreleased containers)
		// of every other writer.
		store: valueStore{fill: 1 + f.depth*(len(writers)-1)},
	}
	r.blocks.Release = r.release
	r.hist.Release = r.release
	if f.extract != nil {
		r.hist.Spec = *f.extract
	}
	return r
}

// Steps is the number of steps the reader consumed, skipped ones included.
func (r *Reader) Steps() int { return r.steps }

// Next implements core.Source.
func (r *Reader) Next() (core.DataAdaptor, error) {
	for r.eos < len(r.writers) {
		msg := <-r.f.hub.Deliveries(r.rank)
		if msg.EOS {
			// EOS carries no data to execute; acknowledge on receipt.
			msg.Release()
			r.eos++
			continue
		}
		var (
			img  *grid.ImageData
			hist *extracts.HistogramPartial
			lent [][]float64
			st   int
			tm   float64
			err  error
		)
		r.reg.Time("endpoint::decode", msg.Step, func() {
			switch {
			case extracts.IsExtract(msg.Payload):
				switch extracts.ExtractKind(msg.Payload) {
				case extracts.KindHistogram:
					hist, err = extracts.DecodeHistogramExtract(msg.Payload)
					if err == nil {
						st, tm = hist.Step, hist.Time
					}
				case extracts.KindEmpty:
					st, tm, err = extracts.DecodeEmptyExtract(msg.Payload)
				default:
					err = fmt.Errorf("adios: unsupported extract kind %d", extracts.ExtractKind(msg.Payload))
				}
			default:
				img, st, tm, err = decodeStep(msg.Payload, func(n int) []float64 {
					lent = append(lent, r.store.lend(n))
					return lent[len(lent)-1]
				})
			}
		})
		if err != nil {
			return nil, err
		}
		p := r.pending[st]
		if p == nil {
			p = &stagedStep{blocks: map[int]*grid.ImageData{}}
			r.pending[st] = p
		}
		if img != nil {
			p.blocks[msg.Writer] = img
		}
		if hist != nil {
			if p.hist, err = mergeHistogramPartial(p.hist, hist); err != nil {
				return nil, err
			}
		}
		p.got++
		p.dels = append(p.dels, msg)
		p.values = append(p.values, lent...)
		p.time = tm
		if p.got < len(r.writers) {
			continue
		}
		delete(r.pending, st)
		r.steps++
		r.cur = p
		switch {
		case p.hist != nil && len(p.blocks) > 0:
			return nil, fmt.Errorf("adios: step %d mixes extract partials and full containers", st)
		case p.hist != nil:
			r.hist.Hist = p.hist
			r.hist.SetStep(st, p.time)
			return &r.hist, nil
		case len(p.blocks) == 0:
			r.release() // nothing to analyze this step, but the credits return
			continue
		case len(p.blocks) == 1:
			for _, b := range p.blocks {
				r.blocks.Data = b
			}
		default:
			mb := &grid.MultiBlock{}
			for _, w := range r.writers {
				if b := p.blocks[w]; b != nil {
					mb.Blocks = append(mb.Blocks, b)
				}
			}
			r.blocks.Data = mb
		}
		r.blocks.SetStep(st, p.time)
		return &r.blocks, nil
	}
	if len(r.pending) > 0 {
		return nil, fmt.Errorf("adios: endpoint rank %d: %d incomplete steps at EOS", r.rank, len(r.pending))
	}
	return nil, nil
}

// release returns the served step's credits to its writers and its arrays
// to the store: the analyses are done with them, as in situ they are done
// with the simulation's once Execute returns.
func (r *Reader) release() {
	p := r.cur
	if p == nil {
		return
	}
	r.cur = nil
	for i := range p.dels {
		p.dels[i].Release()
	}
	r.store.free = append(r.store.free, p.values...)
}

// EndpointResult carries the endpoint's instrumentation back to the driver.
type EndpointResult struct {
	Registries []*metrics.Registry
	Steps      int
}

// RunEndpoint runs the analysis endpoint group on goroutine ranks: one rank
// per fabric reader, each driving its bridge with its Reader until every
// feeding writer sent EOS. It blocks until the stream ends; run it
// concurrently with the writer group. Reader initialization — configure,
// then the group barrier every reader meets before consuming, as FlexPath's
// control channel does — is timed under "endpoint::initialize", the phase
// the paper found an order of magnitude slower on Cori than Titan.
func RunEndpoint(f *Fabric, configure func(b *core.Bridge) error, opts ...mpi.Option) (*EndpointResult, error) {
	n := f.Pairs()
	res := &EndpointResult{Registries: make([]*metrics.Registry, n)}
	err := mpi.Run(n, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry(c.Rank())
		res.Registries[c.Rank()] = reg
		b := core.NewBridge(c, reg, metrics.NewTracker())
		var err error
		reg.Time("endpoint::initialize", 0, func() {
			if err = configure(b); err == nil {
				err = c.Barrier()
			}
		})
		if err != nil {
			return err
		}
		src := f.Reader(c.Rank(), reg)
		if _, err := b.Drive(src); err != nil {
			return err
		}
		if c.Rank() == 0 {
			res.Steps = src.Steps()
		}
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return res, nil
}
