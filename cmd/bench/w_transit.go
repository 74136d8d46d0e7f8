package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"gosensei/internal/adios"
	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/fabric"
	"gosensei/internal/grid"
	"gosensei/internal/mpi"
)

// intransit-delta: 64^3 oscillator, 2 writer ranks -> adios.Writer over
// FlexPathTransport -> a tcp fabric with the delta and flate codecs on
// offer, queue depth 2 -> adios.RunEndpoint with a histogram. BP encode,
// codec, framing, credits and endpoint decode do most of the work.

const (
	transitCells = 64
	transitDepth = 2
	// frameProbeBytes is the payload the fabric framing probe round-trips.
	frameProbeBytes = 1 << 20
)

// transitCapture is what one lifetime's endpoint and writers produced.
type transitCapture struct {
	hist   []*analysis.HistogramResult // endpoint's, by 0-based step
	doneAt []int64                     // when the endpoint's histogram of a step existed (CPU clock)
	staged []int64                     // BP container bytes per step, by writer rank
}

type transitPipeline struct {
	env *env
	ref []*analysis.HistogramResult // serial in situ histograms by step
}

func (p *transitPipeline) plan(quick bool) plan {
	if quick {
		return plan{warm: 2, steps: 12, cycles: 3}
	}
	return plan{warm: warmSteps, steps: 120, cycles: 40}
}

// reference computes the histograms in situ on one rank: the endpoint, fed
// through BP, codec and wire by two writers, must reproduce them exactly.
func (p *transitPipeline) reference(total int) (*lifeOut, error) {
	o := &runOpts{ranks: 1, steps: total}
	out := newLifeOut(o)
	p.ref = make([]*analysis.HistogramResult, total)
	clk := o.clock()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		r, err := newSimRank(p.env, o, clk, c, transitCells, out)
		if err != nil {
			return err
		}
		h := analysis.NewHistogram(c, "data", grid.CellData, statsBins)
		r.add("histogram", "analysis", h)
		if err := r.loop(func(k int) { p.ref[k] = h.Last }, nil); err != nil {
			return err
		}
		return r.finalize()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (p *transitPipeline) run(o *runOpts) (*lifeOut, error) {
	out := newLifeOut(o)
	capt := &transitCapture{
		hist:   make([]*analysis.HistogramResult, o.total()),
		doneAt: make([]int64, o.total()),
		staged: make([]int64, o.ranks),
	}
	clk := o.clock()
	fab, err := adios.ListenFabric("tcp", "127.0.0.1:0", o.ranks, 1, transitDepth,
		adios.WithCodecs(fabric.CodecDelta, fabric.CodecFlate))
	if err != nil {
		return nil, err
	}
	var wire connStats
	if o.tr != nil {
		fab.SetConnWrapper(func(_ int, c fabric.Conn) fabric.Conn { return wire.wrap(c) })
	}
	var (
		epRes  *adios.EndpointResult
		epErr  error
		epDone = make(chan struct{})
	)
	go func() {
		defer close(epDone)
		epRes, epErr = adios.RunEndpoint(fab, func(b *core.Bridge) error {
			eh := &endpointHist{inner: analysis.NewHistogram(b.Comm, "data", grid.CellData, statsBins), capt: capt}
			if o.tr != nil {
				eh.rec = o.tr.recorder(rankEndpoint)
			}
			b.AddAnalysis("histogram", eh)
			return nil
		}, mpi.WithRecvTimeout(recvBudget))
	}()

	transport := &adios.FlexPathTransport{Fabric: fab}
	werr := mpi.Run(o.ranks, func(c *mpi.Comm) error {
		r, err := newSimRank(p.env, o, clk, c, transitCells, out)
		if err != nil {
			return err
		}
		var t adios.Transport = transport
		if r.rec != nil {
			t = &tracedTransport{inner: transport, r: r, wire: &wire}
		}
		w := adios.NewWriter(c, t)
		w.Registry = r.reg
		r.add("writer", "adios", w)
		if err := r.loop(nil, func(k int) error {
			if err := r.probeCollectives(k); err != nil {
				return err
			}
			return r.probeStaging(k)
		}); err != nil {
			return err
		}
		img, err := r.mesh()
		if err != nil {
			return err
		}
		capt.staged[c.Rank()] = int64(len(adios.AppendStep(nil, img, r.sim.StepIndex(), r.sim.Time())))
		return r.finalize()
	}, mpi.WithRecvTimeout(recvBudget))
	if werr != nil {
		// The endpoint returns only once every writer said EOS; say it for
		// the writers that failed before they could.
		for rank := 0; rank < o.ranks; rank++ {
			_ = transport.Close(rank) // best effort: the run has already failed
		}
	}
	giveUp := time.NewTimer(recvBudget)
	defer giveUp.Stop()
	select {
	case <-epDone:
	case <-giveUp.C:
		epErr = fmt.Errorf("endpoint still running %v after the writers returned", recvBudget)
	}
	cerr := fab.Close()
	switch {
	case werr != nil:
		return nil, werr
	case epErr != nil:
		return nil, fmt.Errorf("endpoint: %w", epErr)
	case cerr != nil:
		return nil, cerr
	}

	// Verification: the endpoint executed every step, each histogram equals
	// the serial in situ one bit for bit, and the logical-byte odometer
	// reads exactly steps x staged bytes.
	st := fab.Stats()
	out.checks.expect(epRes.Steps == o.total())
	for k, h := range capt.hist {
		out.checks.expect(k < len(p.ref) && histEqual(h, p.ref[k]))
	}
	var staged int64
	for _, b := range capt.staged {
		staged += 8 + b // the step number rides in front of every container
	}
	out.checks.expect(st.DataBytesLogical.Value() == int64(o.total())*staged)

	// A step's result lags its simulation phase by however long writers,
	// wire and endpoint take to turn it into the endpoint's histogram.
	out.lagNs = out.lagNs[:0]
	for k := o.warm; k < o.total(); k++ {
		out.lagNs = append(out.lagNs, capt.doneAt[k]-out.simEnd[k])
	}
	// Bytes over the whole lifetime, so the keyframe that opens each delta
	// chain is paid for.
	n := float64(o.total())
	out.bytesOut = float64(st.DataBytesWire.Value()) / n
	if o.tr != nil {
		p.layerObs(o, out, st, wire.snap(), epRes)
	}
	return out, nil
}

// layerObs derives the traced pass's per-layer observations of one lifetime
// from its spans, the endpoint's registry, the endpoint-side fabric
// odometers and what crossed the writers' wrapped connections.
func (p *transitPipeline) layerObs(o *runOpts, out *lifeOut, st *fabric.Stats, w connSnap, epRes *adios.EndpointResult) {
	n := float64(o.total())
	spans := timedSpans(o.tr.all(), o)
	simLayerObs(out, spans, transitCells)
	out.observe("adios.write_step_ms_p50", scaled(perStep(spans, 0, "adios.write_step", nil), 1e-6)...)
	out.observe("adios.advance_ms_p50", scaled(perStep(spans, 0, "adios.advance", nil), 1e-6)...)
	out.observe("analysis.endpoint_histogram_ms_p50", scaled(perStep(spans, rankEndpoint, "analysis.endpoint_histogram", nil), 1e-6)...)
	decode := map[int]float64{}
	for _, ev := range epRes.Registries[0].EventsNamed("endpoint::decode") {
		if k := ev.Step - 1; k >= o.warm && k < o.total() {
			decode[ev.Step] += ev.Seconds * 1e3
		}
	}
	for _, ms := range decode {
		out.observe("adios.endpoint_decode_ms_p50", ms)
	}
	for _, ev := range epRes.Registries[0].EventsNamed("endpoint::initialize") {
		out.observe("adios.endpoint_init_ms_p10", ev.Seconds*1e3)
	}
	out.observe("fabric.wire_bytes_per_step", float64(st.DataBytesWire.Value())/n)
	out.observe("fabric.logical_bytes_per_step", float64(st.DataBytesLogical.Value())/n)
	out.observe("fabric.wire_reduction", st.WireReduction())
	out.observe("fabric.conn_writes_per_step", float64(w.writes)/n)
	out.observe("fabric.conn_write_ms_per_step", float64(w.writeNs)/1e6/n)
	// Counted from outside, on the writers' connections: one dial per
	// writer and one data frame per writer and step on a healthy run.
	out.observe("fabric.reconnects", float64(w.conns-int64(o.ranks)))
	out.observe("fabric.retransmits", float64(w.dataFrames-int64(o.total()*o.ranks)))
}

// endpointHist wraps the endpoint's histogram: it keeps every step's result
// and the instant it existed, and in the traced pass a span.
type endpointHist struct {
	inner *analysis.Histogram
	capt  *transitCapture
	rec   *recorder
}

func (e *endpointHist) Execute(d core.DataAdaptor) (bool, error) {
	k := d.TimeStep() - 1
	var s int
	if e.rec != nil {
		e.rec.step = k
		s = e.rec.begin("analysis.endpoint_histogram", "analysis")
	}
	ok, err := e.inner.Execute(d)
	if e.rec != nil {
		e.rec.end(s)
	}
	if k >= 0 && k < len(e.capt.hist) {
		e.capt.hist[k], e.capt.doneAt[k] = e.inner.Last, cpuNow()
	}
	return ok, err
}

func (e *endpointHist) Finalize() error { return e.inner.Finalize() }

// tracedTransport wraps one writer rank's adios.Transport. Advance and
// WriteStep are called by every rank in lockstep, so both are bracketed by
// world barriers like the analyses.
type tracedTransport struct {
	inner *adios.FlexPathTransport
	r     *simRank
	wire  *connStats
}

func (t *tracedTransport) Name() string { return t.inner.Name() }

func (t *tracedTransport) Close(rank int) error { return t.inner.Close(rank) }

// Negotiated forwards the staging writer's one-time extract negotiation,
// which is also where the connection is dialed and the handshake runs.
func (t *tracedTransport) Negotiated(rank int) (fabric.ExtractSpec, error) {
	rec := t.r.rec
	s := rec.begin("fabric.handshake", "fabric")
	spec, err := t.inner.Negotiated(rank)
	rec.end(s)
	if t.r.root {
		t.r.out.observe("fabric.handshake_ms_p10", float64(rec.spans[s].dur())/1e6)
	}
	return spec, err
}

func (t *tracedTransport) Advance(c *mpi.Comm, step int) error {
	if err := t.r.c.Barrier(); err != nil {
		return err
	}
	s := t.r.rec.begin("adios.advance", "adios")
	err := t.inner.Advance(c, step)
	berr := t.r.c.Barrier()
	t.r.rec.end(s)
	if err == nil {
		err = berr
	}
	return err
}

func (t *tracedTransport) WriteStep(rank int, payload []byte, step int) error {
	rec := t.r.rec
	if err := t.r.c.Barrier(); err != nil {
		return err
	}
	w0 := t.wire.writeNs.Load()
	s := rec.begin("adios.write_step", "adios")
	err := t.inner.WriteStep(rank, payload, step)
	berr := t.r.c.Barrier()
	rec.end(s)
	if t.r.root && rec.step >= t.r.o.warm {
		// What WriteStep spends outside the connection's Write: codec,
		// framing and the wait for credits. The codec is private to fabric;
		// this is its measure from outside.
		self := rec.spans[s].dur() - (t.wire.writeNs.Load() - w0)
		t.r.out.observe("fabric.send_self_ms_p50", float64(self)/1e6)
	}
	if err == nil {
		err = berr
	}
	return err
}

// probeStaging times the BP codec on rank 0's block and fabric's framing
// on a fixed payload; the other ranks wait in the brackets.
func (r *simRank) probeStaging(k int) error {
	if err := r.c.Barrier(); err != nil {
		return err
	}
	if r.root {
		img, err := r.mesh()
		if err != nil {
			return err
		}
		// The endpoint and the hub's pumps still hold a step or two of
		// backlog and take the core whenever this goroutine is preempted,
		// so each probe keeps the fastest of a few tries.
		enc, dec, frm := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
		var buf []byte
		for try := 0; try < 3; try++ {
			t0 := r.clk.now()
			buf = adios.AppendStep(buf[:0], img, k, r.sim.Time())
			t1 := r.clk.now()
			if _, _, _, err := adios.DecodeStep(buf); err != nil {
				return err
			}
			t2 := r.clk.now()
			payload := buf[:min(len(buf), frameProbeBytes)]
			frame := fabric.AppendFrame(nil, fabric.FrameData, uint32(k), payload)
			if _, _, _, err := fabric.NewFrameReader(bytes.NewReader(frame), 0).Next(); err != nil {
				return err
			}
			t3 := r.clk.now()
			enc, dec, frm = min(enc, t1-t0), min(dec, t2-t1), min(frm, t3-t2)
		}
		r.out.observe("adios.encode_ms_p50", float64(enc)/1e6)
		r.out.observe("adios.encode_mb_per_s", float64(len(buf))/1e6/(float64(enc)/1e9))
		r.out.observe("adios.decode_ms_p50", float64(dec)/1e6)
		r.out.observe("fabric.frame_roundtrip_us_p50", float64(frm)/1e3)
		now := r.clk.now()
		r.rec.add("probe.adios.encode", "adios", k, now-enc-dec-frm, now-dec-frm)
		r.rec.add("probe.adios.decode", "adios", k, now-dec-frm, now-frm)
		r.rec.add("probe.fabric.frame_roundtrip", "fabric", k, now-frm, now)
	}
	return r.c.Barrier()
}
