package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"gosensei/internal/catalyst"
	"gosensei/internal/compositing"
	"gosensei/internal/fabric"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/render"
	"gosensei/internal/world"
)

// insitu-render-tcp: 32^3 oscillator -> catalyst slice -> binary-swap
// composite -> serial PNG into the scratch directory, the two ranks joined
// by world.Launch over one tcp connection on 127.0.0.1. Render, composite
// and PNG bound, and the only workload where world works.

const (
	renderCells = 32
	// renderRefStride subsamples the serial PNG reference so that it stays
	// under a tenth of the run: every renderRefStride-th frame is rendered
	// serially and compared by SHA-256; the others compare against the first
	// repetition's frames (the pipeline is deterministic).
	renderRefStride = 5
)

type frameFile struct {
	sum  [sha256.Size]byte
	size int64
}

// imageSize is 800x450 — the largest 16:9 frame whose two repetitions of
// 100 timed steps, 20 set-up cycles and serial reference fit a 30 s run on
// a slow minute of the host with room to spare — and 480x270 with -quick.
func (p *renderPipeline) imageSize() (w, h int) {
	if p.env.cfg.quick {
		return 480, 270
	}
	return 800, 450
}

type renderPipeline struct {
	env *env
	ref map[int]frameFile // serial frames by time step
	// first holds the first full repetition's frames, the comparison for
	// steps the subsampled reference skips.
	first map[int]frameFile
	// worldSeq gives every world of this process its own identity.
	worldSeq uint64
}

func (p *renderPipeline) plan(quick bool) plan {
	if quick {
		return plan{warm: 1, steps: 11, cycles: 2}
	}
	return plan{warm: warmSteps, steps: 100, cycles: 20}
}

func (p *renderPipeline) reference(total int) (*lifeOut, error) {
	o := &runOpts{ranks: 1, steps: total}
	out, frames, _, err := p.life(o, renderRefStride)
	if err != nil {
		return nil, err
	}
	p.ref = frames
	// Only the frames the subsampled reference rendered are serial steps of
	// the full pipeline; the others ran the simulation alone.
	rendered := out.stepNs[:0]
	for k, ns := range out.stepNs {
		if (k+1)%renderRefStride == 0 {
			rendered = append(rendered, ns)
		}
	}
	out.stepNs = rendered
	return out, nil
}

func (p *renderPipeline) run(o *runOpts) (*lifeOut, error) {
	out, frames, regs, err := p.life(o, 1)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for k := 0; k < o.total(); k++ {
		step := k + 1 // the adaptor numbers frames by completed steps
		f, ok := frames[step]
		want, covered := p.ref[step]
		if !covered && p.first != nil {
			want, covered = p.first[step]
		}
		out.checks.expect(ok && f.size > 0 && (!covered || f.sum == want.sum))
		if k >= o.warm {
			bytes += f.size
		}
	}
	if p.first == nil || len(frames) > len(p.first) {
		p.first = frames
	}
	out.bytesOut = float64(bytes) / float64(o.steps)
	if o.tr != nil {
		p.layerObs(o, out, regs)
	}
	return out, nil
}

// life runs one pipeline lifetime and returns the frames it wrote, hashed,
// and every rank's registry.
func (p *renderPipeline) life(o *runOpts, stride int) (*lifeOut, map[int]frameFile, []*metrics.Registry, error) {
	p.env.dirSeq++
	dir := filepath.Join(p.env.scratch, fmt.Sprintf("frames-%d", p.env.dirSeq))
	defer func() { _ = os.RemoveAll(dir) }() // the scratch root is removed again on exit
	out := newLifeOut(o)
	regs := make([]*metrics.Registry, o.ranks)
	width, height := p.imageSize()
	var wire connStats
	var wire0 connSnap
	clk := o.clock()
	rank := func(c *mpi.Comm) error {
		r, err := newSimRank(p.env, o, clk, c, renderCells, out)
		if err != nil {
			return err
		}
		regs[c.Rank()] = r.reg
		a := catalyst.NewSliceAdaptor(c, catalyst.Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: width, Height: height,
			SliceAxis: 2, SliceCoord: p.env.in.sliceFrac * renderCells,
			OutputDir: dir, Stride: stride, Workers: 1,
		})
		a.Registry = r.reg
		r.add("slice", "catalyst", a)
		r.onTimed = func(begin bool) {
			if begin {
				wire0 = wire.snap()
				return
			}
			d := wire.snap().sub(wire0)
			n := float64(o.steps)
			out.observe("world.wire_bytes_per_step", float64(d.bytes)/n)
			out.observe("world.conn_writes_per_step", float64(d.writes)/n)
			out.observe("world.conn_write_ms_per_step", float64(d.writeNs)/1e6/n)
		}
		if err := r.loop(nil, func(k int) error {
			if err := r.probeCollectives(k); err != nil {
				return err
			}
			if err := r.probeExchange(k); err != nil {
				return err
			}
			return r.probeComposite(k, width, height)
		}); err != nil {
			return err
		}
		return r.finalize()
	}
	var err error
	if o.ranks == 1 {
		err = mpi.Run(1, rank)
	} else {
		p.worldSeq++
		cfg := world.Config{
			Network: "tcp", ID: uint64(os.Getpid())<<16 | p.worldSeq, Epoch: 1,
			RecvTimeout: recvBudget, JoinTimeout: recvBudget,
		}
		if o.tr != nil {
			cfg.WrapConn = func(_ int, c fabric.Conn) fabric.Conn { return wire.wrap(c) }
		}
		for _, rerr := range world.Launch(o.ranks, cfg, rank) {
			if rerr != nil {
				err = rerr
				break
			}
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if o.tr != nil {
		out.observe("world.join_ms_p10", float64(out.ranAt)/1e6)
	}
	frames, err := hashFrames(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	return out, frames, regs, nil
}

// hashFrames reads back the slice_NNNNN.png files of one lifetime.
func hashFrames(dir string) (map[int]frameFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "slice_*.png"))
	if err != nil {
		return nil, err
	}
	frames := make(map[int]frameFile, len(names))
	for _, name := range names {
		var step int
		if _, err := fmt.Sscanf(filepath.Base(name), "slice_%d.png", &step); err != nil {
			return nil, fmt.Errorf("frame %s: %w", name, err)
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		frames[step] = frameFile{sha256.Sum256(b), int64(len(b))}
	}
	return frames, nil
}

// layerObs splits the bracketed catalyst execute span into its layers. The
// timers catalyst publishes to the caller's registry are rank-local wall
// times, and on one P a rank's timer absorbs its peer's time slices (render
// summed over ranks read 116 ms inside an 89 ms bracket at 960x540), so only
// two of them are used: the PNG encode, which rank 0 runs while its peer
// waits in a barrier, and the one-time initialize. Composite is the bracketed probe;
// the slice render is what remains of the bracket.
func (p *renderPipeline) layerObs(o *runOpts, out *lifeOut, regs []*metrics.Registry) {
	spans := timedSpans(o.tr.all(), o)
	simLayerObs(out, spans, renderCells)
	exec := scaled(perStep(spans, 0, "catalyst.slice", nil), 1e-6)
	out.observe("catalyst.execute_ms_p50", exec...)

	var png []float64
	var frameBytes float64
	for _, ev := range regs[0].EventsNamed("catalyst::png") {
		if k := ev.Step - 1; k >= o.warm && k < o.total() {
			png = append(png, ev.Seconds*1e3)
			frameBytes += float64(p.first[ev.Step].size)
		}
	}
	out.observe("render.png_ms_p50", png...)
	if m := median(png); m > 0 {
		width, height := p.imageSize()
		out.observe("render.png_mpix_per_s", float64(width*height)/1e6/(m/1e3))
		out.observe("render.png_bytes_per_frame", frameBytes/float64(len(png)))
	}
	if rest := median(exec) - median(png) - median(out.obs["compositing.composite_ms_p50"]); rest > 0 {
		out.observe("render.slice_ms_p50", rest)
	}
	for _, ev := range regs[0].EventsNamed("catalyst::initialize") {
		out.observe("catalyst.init_ms_p10", ev.Seconds*1e3)
	}
}

// probeExchange times one 2 MiB pairwise exchange on the workload's own
// communicator — the large-message shape of the half-image swap — and what
// the process allocates for it.
func (r *simRank) probeExchange(k int) error {
	if r.c.Size() != 2 {
		return nil
	}
	buf := make([]float32, 2<<20/4)
	peer := 1 - r.c.Rank()
	if err := r.c.Barrier(); err != nil {
		return err
	}
	var m0 memSnap
	if r.root {
		m0 = readMem()
	}
	t0 := r.clk.now()
	if _, err := mpi.SendRecv(r.c, peer, tagProbe, buf, peer, tagProbe); err != nil {
		return err
	}
	if err := r.c.Barrier(); err != nil {
		return err
	}
	t1 := r.clk.now()
	if r.root {
		r.out.observe("mpi.exchange_2mib_ms_p50", float64(t1-t0)/1e6)
		r.out.observe("world.alloc_kb_per_exchange", float64(readMem().totalAlloc-m0.totalAlloc)/1024)
		r.rec.add("probe.mpi.exchange_2mib", "mpi", k, t0, t1)
	}
	return nil
}

// probeComposite runs the workload's compositor on blank framebuffers of
// the workload's size over its own communicator, bracketed, and counts the
// bytes the ranks exchange for it. Binary swap ships whole image halves
// whatever they show, so blank frames move what rendered ones do.
func (r *simRank) probeComposite(k, width, height int) error {
	if err := r.c.Barrier(); err != nil {
		return err
	}
	sent0 := r.c.TrafficStats().SentBytes
	t0 := r.clk.now()
	fb := render.AcquireFramebuffer(width, height)
	final, err := compositing.Composite(r.c, fb, 0, compositing.BinarySwap)
	// The compositor may hand rank 0 back its own buffer; release each
	// underlying framebuffer exactly once.
	if final != nil && final != fb {
		final.Release()
	}
	fb.Release()
	if err != nil {
		return err
	}
	sent := []int64{r.c.TrafficStats().SentBytes - sent0}
	if err := r.c.Barrier(); err != nil {
		return err
	}
	t1 := r.clk.now()
	total := make([]int64, 1)
	if err := mpi.Reduce(r.c, sent, total, mpi.OpSum, 0); err != nil {
		return err
	}
	if r.root {
		r.out.observe("compositing.composite_ms_p50", float64(t1-t0)/1e6)
		r.out.observe("compositing.bytes_exchanged_per_step", float64(total[0]))
		r.rec.add("probe.compositing.composite", "compositing", k, t0, t1)
	}
	return nil
}
