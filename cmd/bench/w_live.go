package main

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gosensei/internal/fabric"
	"gosensei/internal/live"
)

// live-fanout: live.Hub + live.ServeWith on tcp; 1000 SubscribeRef
// subscriptions swept by the publisher and 2 wire viewers. One closed loop
// per seeded 64 KiB frame: drain steering, publish, sweep, both viewers
// hold the frame. Each viewer steers every 10th frame. The only workload
// where live works.

const (
	liveSubs       = 1000
	liveViewers    = 2
	liveCredits    = 2
	liveSteerEvery = 10
	liveHeapEvery  = 1000
	// liveProbePublishes sizes the allocation probe of the bare hub.
	liveProbePublishes = 200
)

type livePipeline struct{ env *env }

func (p *livePipeline) plan(quick bool) plan {
	if quick {
		return plan{warm: 20, steps: 200, cycles: 3}
	}
	return plan{warm: 500, steps: 20000, cycles: 200}
}

// reference: the expected frames are the seeded inputs themselves (bodies
// and checksums in env.in); there is no serial pipeline to run.
func (p *livePipeline) reference(int) (*lifeOut, error) { return nil, nil }

// viewerAck is what a viewer's consumer tells the publisher about a frame.
type viewerAck struct {
	step int
	at   int64 // when the viewer held the frame (CPU clock)
	wall int64 // the same instant in wall time, for the trace
	ok   bool  // step and checksum as published
}

// steer tracks one steering command from a viewer to the publisher.
type steer struct {
	frame  int // the frame it answers, which is also the value it carries
	sentAt atomic.Int64
	// Publisher only: when the command was drained, and whether it carried
	// the frame number its viewer sent.
	seenAt int64
	intact bool
}

func (p *livePipeline) run(o *runOpts) (out *lifeOut, err error) {
	out = newLifeOut(o)
	clk := o.clock()
	total := o.total()
	in := p.env.in
	var rec *recorder
	if o.tr != nil {
		rec = o.tr.recorder(0)
	}

	// Set-up: hub, listener, server, subscriptions, viewers.
	hub := live.NewHub()
	defer hub.Close()
	lis, err := fabric.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := live.ServeWith(lis, hub, live.ServeOptions{Credits: liveCredits})
	defer func() {
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var heap0 uint64
	if rec != nil {
		heap0 = liveHeap()
	}
	tAttach := clk.now()
	subs := make([]*live.Subscription, liveSubs)
	for i := range subs {
		subs[i] = hub.SubscribeRef()
	}
	defer func() {
		for _, s := range subs {
			s.Cancel()
		}
	}()
	if rec != nil {
		out.observe("live.attach_us_per_sub", float64(clk.now()-tAttach)/1e3/liveSubs)
		heap1 := liveHeap()
		out.observe("live.heap_kb_per_sub", float64(heap1-min(heap0, heap1))/1024/liveSubs)
		heap0 = heap1
	}

	// Steering commands are named per viewer and frame, so the hub's
	// last-writer-wins table can never fold two of them into one.
	steers := make([][]steer, liveViewers)
	names := make([][]string, liveViewers)
	acks := make([]chan viewerAck, liveViewers)
	seen := make([]int64, liveViewers) // frames each consumer took; its own slot
	viewers := make([]*live.Viewer, 0, liveViewers)
	var consumers sync.WaitGroup
	defer func() {
		for _, v := range viewers {
			_ = v.Close() // tear-down; the consumers see the closed stream
		}
		consumers.Wait()
	}()
	for i := 0; i < liveViewers; i++ {
		v, derr := live.DialViewer("tcp", srv.Addr())
		if derr != nil {
			return nil, derr
		}
		viewers = append(viewers, v)
		steers[i] = make([]steer, total/liveSteerEvery+1)
		names[i] = make([]string, len(steers[i]))
		for j := range names[i] {
			steers[i][j].frame = j * liveSteerEvery
			names[i][j] = "v" + strconv.Itoa(i) + "." + strconv.Itoa(j)
		}
		acks[i] = make(chan viewerAck, 1)
		consumers.Add(1)
		go func(i int, v *live.Viewer) {
			defer consumers.Done()
			defer close(acks[i])
			for {
				f, ok := v.Next(0)
				if !ok {
					return
				}
				a := viewerAck{step: f.Step, at: cpuNow(), wall: clk.now()}
				a.ok = f.Step >= 0 && f.Step < total && crc32.ChecksumIEEE(f.PNG) == in.bodyCRC[f.Step%liveBodies]
				seen[i]++
				if a.ok && f.Step%liveSteerEvery == 0 {
					j := f.Step / liveSteerEvery
					steers[i][j].sentAt.Store(clk.now())
					if v.Steer(names[i][j], float64(f.Step)) != nil {
						a.ok = false
					}
				}
				acks[i] <- a
			}
		}(i, v)
	}
	byName := make(map[string]*steer, liveViewers*len(steers[0]))
	for i := range names {
		for j, n := range names[i] {
			byName[n] = &steers[i][j]
		}
	}
	// drain hands the steering commands that arrived to their trackers.
	drain := func() (arrived []*steer) {
		for _, c := range hub.DrainCommands() {
			if st := byName[c.Name]; st != nil && st.seenAt == 0 {
				st.seenAt = clk.now()
				st.intact = c.Value == float64(st.frame)
				arrived = append(arrived, st)
			}
		}
		return arrived
	}

	var bytes0 int64
	var publishNs, sweepNs, deliveryNs, steerNs []float64
	publish := func(k int) error {
		timed := k >= o.warm
		if k == o.warm {
			out.mem0, out.cpu0, bytes0 = readMem(), cpuNow(), srv.Stats().BytesOut.Value()
		}
		var sStep int
		if rec != nil {
			rec.step = k
			sStep = rec.begin("step", layerRun)
		}
		// Gated timings read the process CPU clock; the wall instants feed
		// the trace and the run.* diagnostics.
		c0, w0 := cpuNow(), clk.now()
		for _, st := range drain() {
			if timed {
				steerNs = append(steerNs, float64(st.seenAt-st.sentAt.Load()))
			}
		}
		cp0, wp0 := cpuNow(), clk.now()
		hub.Publish(in.frame(k))
		cp1, wp1 := cpuNow(), clk.now()
		for _, s := range subs {
			ref := s.Next()
			out.checks.expect(ref != nil && ref.Step() == k && len(ref.PNG()) == liveFrameBytes)
			ref.Release()
		}
		ws := clk.now()
		var held, heldWall int64
		for i := range acks {
			a, open := <-acks[i]
			if !open {
				return fmt.Errorf("viewer %d lost its connection at frame %d", i, k)
			}
			out.checks.expect(a.ok && a.step == k)
			held, heldWall = max(held, a.at), max(heldWall, a.wall)
		}
		c2, w2 := cpuNow(), clk.now()
		if rec != nil {
			rec.add("live.drain", "live", k, w0, wp0)
			rec.add("live.publish", "live", k, wp0, wp1)
			rec.add("live.sweep", "live", k, wp1, ws)
			rec.add("live.wire_wait", "live", k, ws, w2)
			rec.end(sStep)
		}
		if timed {
			out.stepNs = append(out.stepNs, c2-c0)
			out.blockedNs = append(out.blockedNs, cp1-cp0)
			out.lagNs = append(out.lagNs, held-cp0)
			out.wallNs = append(out.wallNs, w2-w0)
			if rec != nil {
				publishNs = append(publishNs, float64(wp1-wp0))
				sweepNs = append(sweepNs, float64(ws-wp1))
				deliveryNs = append(deliveryNs, float64(heldWall-wp0))
			}
		}
		n := k - o.warm + 1
		if timed && o.heap && (n%liveHeapEvery == 0 || n == o.steps) {
			out.sample(o)
		}
		return nil
	}

	for k := 0; k < total; k++ {
		if p.env.stopped() {
			return nil, errInterrupted
		}
		if err := publish(k); err != nil {
			return nil, err
		}
		if k == 0 && rec != nil {
			// Both viewers hold their first frame: receive buffers and the
			// held copy are what a wire viewer keeps alive.
			heap1 := liveHeap()
			out.observe("live.heap_kb_per_viewer", float64(heap1-min(heap0, heap1))/1024/liveViewers)
		}
	}
	out.mem1, out.cpu1 = readMem(), cpuNow()
	out.bytesOut = float64(srv.Stats().BytesOut.Value()-bytes0) / float64(o.steps)

	// Every steer must have reached the publisher; the last ones may still
	// be on the wire, so keep draining (sleeping in between) for a while.
	pending := func() bool {
		for _, st := range byName {
			if st.sentAt.Load() != 0 && st.seenAt == 0 {
				return true
			}
		}
		return false
	}
	for waited := time.Duration(0); pending() && waited < 2*time.Second; waited += 100 * time.Microsecond {
		time.Sleep(100 * time.Microsecond)
		drain()
	}
	for _, st := range byName {
		if st.sentAt.Load() != 0 {
			out.checks.expect(st.seenAt != 0 && st.intact)
		}
	}

	if rec != nil {
		out.observe("live.publish_us_p50", scaled(publishNs, 1e-3)...)
		out.observe("live.sweep_us_p50", scaled(sweepNs, 1e-3)...)
		out.observe("live.wire_delivery_us_p50", scaled(deliveryNs, 1e-3)...)
		out.observe("live.steer_rtt_us_p50", scaled(steerNs, 1e-3)...)
		var skipped int64
		for _, n := range seen {
			skipped += int64(total) - n
		}
		out.observe("live.skipped_frames", float64(skipped))
		out.observe("live.publish_allocs_per_op", probePublishAllocs(in))
		out.observe("run.ledger_coverage", ledgerCoverage(timedSpans(o.tr.all(), o), 0))
	}
	return out, nil
}

// probePublishAllocs counts the allocations of Hub.Publish on a hub nobody
// listens to: the publish path's own cost, which must stay flat whatever
// the fan-out.
func probePublishAllocs(in *inputs) float64 {
	hub := live.NewHub()
	defer hub.Close()
	for k := 0; k < liveBodies; k++ { // fill the frame pool first
		hub.Publish(in.frame(k))
	}
	m0 := readMem()
	for k := 0; k < liveProbePublishes; k++ {
		hub.Publish(in.frame(k))
	}
	return float64(readMem().mallocs-m0.mallocs) / liveProbePublishes
}
