// Command live-load drives a wall of wire viewers into one live hub — the
// fan-out-scale load generator behind the `make check` smoke. It publishes a
// paced frame sequence while thousands of concurrent viewers (loopback pipes
// or real TCP sockets) attach, and verifies the scale contract: the publish
// path never stalls behind viewers, every fast viewer converges on the final
// frame, and slow viewers — whose socket reads are artificially delayed — are
// credit-gated into skip-to-newest instead of building a backlog.
//
// heap_mb is what the viewers hold: the live heap after a collection, read
// while every viewer is still attached and has converged. -check fails when
// the viewers add more than viewers x (2 x -png + 64 KiB) to the heap
// measured before the first attach: two frames and the session buffers of
// both ends each.
//
// publish_idle_p50_us is the same paced publish sequence on the same hub
// before any viewer attaches. -check fails when the publish p50 with every
// viewer attached exceeds publishBound times it: a publisher that does
// per-viewer work (waking each waiting pusher itself) fails there long
// before it comes near the 1 s stall bound.
//
// Examples:
//
//	live-load -viewers 2000 -frames 60
//	live-load -viewers 500 -network tcp -slow 0.2 -json
//	live-load -viewers 200 -frames 20 -check
//
// With -dial it skips the built-in hub and publisher and instead attaches
// the viewer wall to an already-running live server (for example
// a gosensei-run whose deck has a `live host:port` line), reporting what
// the viewers observed:
//
//	live-load -dial 127.0.0.1:9920 -viewers 50 -network tcp
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"gosensei/internal/fabric"
	"gosensei/internal/live"
)

// slowConn delays every socket read, modeling a viewer on a congested link:
// its releases stop flowing, so the server must credit-gate it rather than
// let it wedge a pusher on the write deadline.
type slowConn struct {
	fabric.Conn
	delay time.Duration
}

func (c *slowConn) Read(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Read(p)
}

// publishBound caps, under -check, the publish p50 with every viewer
// attached as a multiple of the p50 with none. At 1000 viewers it read
// 0.55–1.4 on a 2-core host on either network; a publisher that woke each
// waiting pusher itself read 10–48.
const publishBound = 4.0

type viewerStats struct {
	received  uint64
	lastStep  int
	converged bool
}

type report struct {
	Network       string  `json:"network"`
	Viewers       int     `json:"viewers"`
	SlowViewers   int     `json:"slow_viewers"`
	Frames        int     `json:"frames"`
	PNGBytes      int     `json:"png_bytes"`
	Credits       int     `json:"credits"`
	AttachMS      float64 `json:"attach_ms"`
	PublishIdleUS float64 `json:"publish_idle_p50_us"`
	PublishP50US  float64 `json:"publish_p50_us"`
	PublishMaxUS  float64 `json:"publish_max_us"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	Delivered     uint64  `json:"frames_delivered"`
	DeliveredPerS float64 `json:"frames_delivered_per_sec"`
	FastMinRecv   uint64  `json:"fast_min_received"`
	SlowMinRecv   uint64  `json:"slow_min_received"`
	SlowMaxRecv   uint64  `json:"slow_max_received"`
	HeapMB        float64 `json:"heap_mb"`
	Converged     int     `json:"viewers_converged"`
}

func main() {
	var (
		viewers  = flag.Int("viewers", 2000, "concurrent wire viewers")
		network  = flag.String("network", "loopback", "fabric network: loopback or tcp")
		frames   = flag.Int("frames", 60, "frames to publish")
		pngBytes = flag.Int("png", 16<<10, "payload bytes per frame")
		credits  = flag.Int("credits", 2, "per-viewer credit budget")
		slow     = flag.Float64("slow", 0.1, "fraction of viewers with delayed socket reads")
		pace     = flag.Duration("pace", 5*time.Millisecond, "delay between publishes")
		check    = flag.Bool("check", false, "enforce the scale contract; nonzero exit on violation")
		asJSON   = flag.Bool("json", false, "print the report as JSON")
		dial     = flag.String("dial", "", "attach to an existing live server at this address instead of hosting one")
	)
	flag.Parse()
	if *dial != "" {
		runDial(*dial, *network, *viewers)
		return
	}

	addr := fmt.Sprintf("live-load-%d", os.Getpid())
	if *network == "tcp" {
		addr = "127.0.0.1:0"
	}
	lis, err := fabric.Listen(*network, addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	hub := live.NewHub()
	defer hub.Close()
	srv := live.ServeWith(lis, hub, live.ServeOptions{Credits: *credits})
	defer func() { _ = srv.Close() }()
	dialAddr := addr
	if *network == "tcp" {
		dialAddr = srv.Addr()
	}

	nSlow := int(float64(*viewers) * *slow)
	payload := make([]byte, *pngBytes)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	finalStep := *frames - 1

	// The publish cost with nobody attached, paced like the run below. Its
	// frames carry negative steps: the viewers' first frame is the last.
	idleUS := publishPaced(hub, -*frames, *frames, payload, *pace)

	// Attach every viewer before the first publish. Slow viewers get a
	// read-delayed conn; their pump still runs, just late.
	baseHeap := liveHeap()
	attachStart := time.Now()
	vs := make([]*live.Viewer, *viewers)
	var dialWG sync.WaitGroup
	dialErr := make(chan error, 1)
	for i := 0; i < *viewers; i++ {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			opts := live.ViewerOptions{}
			if i < nSlow {
				// Several publish intervals per socket read: the viewer
				// cannot keep up, so the server must skip it to newest.
				opts.WrapConn = func(c fabric.Conn) fabric.Conn {
					return &slowConn{Conn: c, delay: 4 * *pace}
				}
			}
			v, err := live.DialViewerWith(*network, dialAddr, opts)
			if err != nil {
				select {
				case dialErr <- fmt.Errorf("viewer %d: %w", i, err):
				default:
				}
				return
			}
			vs[i] = v
		}(i)
	}
	dialWG.Wait()
	select {
	case err := <-dialErr:
		fatalf("dial: %v", err)
	default:
	}
	attachMS := float64(time.Since(attachStart).Microseconds()) / 1000

	// Each viewer consumes through the public newest-wins API and records
	// what it saw; the consumer goroutine exits once the final step lands
	// or the stream dies.
	stats := make([]viewerStats, *viewers)
	var consumeWG sync.WaitGroup
	for i, v := range vs {
		consumeWG.Add(1)
		go func(i int, v *live.Viewer) {
			defer consumeWG.Done()
			st := &stats[i]
			st.lastStep = -1
			for {
				f, ok := v.Next(30 * time.Second)
				if !ok {
					return
				}
				st.received++
				st.lastStep = f.Step
				if f.Step >= finalStep {
					st.converged = true
					return
				}
			}
		}(i, v)
	}

	// Publish the paced sequence, timing each publish call: this is the
	// simulation's side of the contract — flat, viewer-independent cost.
	runStart := time.Now()
	publishUS := publishPaced(hub, 0, *frames, payload, *pace)
	consumeWG.Wait()
	elapsedMS := float64(time.Since(runStart).Microseconds()) / 1000
	heap := liveHeap() // every viewer attached and converged
	for _, v := range vs {
		_ = v.Close()
	}

	r := report{
		Network: *network, Viewers: *viewers, SlowViewers: nSlow,
		Frames: *frames, PNGBytes: *pngBytes, Credits: *credits,
		AttachMS:      attachMS,
		PublishIdleUS: idleUS[len(idleUS)/2],
		PublishP50US:  publishUS[len(publishUS)/2],
		PublishMaxUS:  publishUS[len(publishUS)-1],
		ElapsedMS:     elapsedMS,
		HeapMB:        float64(heap) / (1 << 20),
	}
	r.FastMinRecv = ^uint64(0)
	r.SlowMinRecv = ^uint64(0)
	for i := range stats {
		st := &stats[i]
		r.Delivered += st.received
		if st.converged {
			r.Converged++
		}
		if i < nSlow {
			r.SlowMinRecv = min(r.SlowMinRecv, st.received)
			r.SlowMaxRecv = max(r.SlowMaxRecv, st.received)
		} else {
			r.FastMinRecv = min(r.FastMinRecv, st.received)
		}
	}
	if nSlow == 0 {
		r.SlowMinRecv, r.SlowMaxRecv = 0, 0
	}
	if *viewers == nSlow {
		r.FastMinRecv = 0
	}
	r.DeliveredPerS = float64(r.Delivered) / (elapsedMS / 1000)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatalf("encode: %v", err)
		}
	} else {
		fmt.Printf("live-load %s: %d viewers (%d slow) x %d frames (%dB): publish p50 %.2fus (idle %.2fus) max %.0fus, %d delivered (%.0f/s), converged %d/%d, heap %.1f MB\n",
			r.Network, r.Viewers, r.SlowViewers, r.Frames, r.PNGBytes,
			r.PublishP50US, r.PublishIdleUS, r.PublishMaxUS, r.Delivered, r.DeliveredPerS,
			r.Converged, r.Viewers, r.HeapMB)
	}

	if *check {
		// The scale contract. Publish must not stall behind viewers: the
		// slowest publish stays far under the 10s write deadline a wedged
		// pusher would impose (1s is generous for a pointer swap + wakeups
		// on a loaded 1-CPU host).
		if r.PublishMaxUS > 1e6 {
			fatalf("check: publish stalled: max %.0fus", r.PublishMaxUS)
		}
		// Nor does its typical cost grow with the audience.
		if r.PublishP50US > publishBound*r.PublishIdleUS {
			fatalf("check: publish p50 %.2fus with %d viewers, over %gx the %.2fus with none",
				r.PublishP50US, r.Viewers, publishBound, r.PublishIdleUS)
		}
		// Every viewer — fast or slow — eventually converges on the final
		// frame: slow viewers skip, they do not fall off or wedge.
		if r.Converged != r.Viewers {
			fatalf("check: only %d/%d viewers saw the final frame", r.Converged, r.Viewers)
		}
		// Slow viewers actually skipped: credit gating kept their delivery
		// count under the full sequence. (Equality would mean the server
		// queued a backlog for them instead.)
		if nSlow > 0 && *frames >= 20 && r.SlowMaxRecv >= uint64(*frames) {
			fatalf("check: slow viewers received %d of %d frames — no skip-to-newest", r.SlowMaxRecv, *frames)
		}
		// A viewer holds its frames and its session buffers, nothing more.
		if held, budget := heap-min(heap, baseHeap), uint64(*viewers)*uint64(2**pngBytes+64<<10); held > budget {
			fatalf("check: %d viewers hold %.1f MB, budget %.1f MB", *viewers, float64(held)/(1<<20), float64(budget)/(1<<20))
		}
	}
}

// publishPaced publishes steps first … first+n-1 of payload, each followed
// by a pace sleep, and returns the publish durations in µs (timed in ns),
// sorted.
func publishPaced(hub *live.Hub, first, n int, payload []byte, pace time.Duration) []float64 {
	us := make([]float64, 0, n)
	for step := first; step < first+n; step++ {
		t0 := time.Now()
		hub.Publish(live.Frame{Step: step, Width: 64, Height: 64, PNG: payload})
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		time.Sleep(pace)
	}
	sort.Float64s(us)
	return us
}

// liveHeap returns the heap bytes still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// runDial is the client-only mode: attach viewers to a server someone else
// is running, consume newest-wins until the stream ends, and report. The
// first viewer steers once, proving the command path end to end.
func runDial(addr, network string, viewers int) {
	vs := make([]*live.Viewer, 0, viewers)
	for i := 0; i < viewers; i++ {
		v, err := live.DialViewer(network, addr)
		if err != nil {
			fatalf("dial %s: %v", addr, err)
		}
		defer func() { _ = v.Close() }()
		vs = append(vs, v)
	}
	var wg sync.WaitGroup
	received := make([]uint64, len(vs))
	lastStep := make([]int, len(vs))
	for i, v := range vs {
		wg.Add(1)
		go func(i int, v *live.Viewer) {
			defer wg.Done()
			lastStep[i] = -1
			for {
				f, ok := v.Next(10 * time.Second)
				if !ok {
					return
				}
				if f.Step < lastStep[i] {
					fatalf("viewer %d: steps went backwards (%d after %d)", i, f.Step, lastStep[i])
				}
				received[i]++
				lastStep[i] = f.Step
				if received[i] == 1 && i == 0 {
					if err := v.Steer("jet-amplitude", 2.5); err != nil {
						fatalf("steer: %v", err)
					}
				}
			}
		}(i, v)
	}
	wg.Wait()
	var total uint64
	minRecv, maxStep := ^uint64(0), -1
	for i := range vs {
		total += received[i]
		minRecv = min(minRecv, received[i])
		maxStep = max(maxStep, lastStep[i])
	}
	fmt.Printf("live-load dial %s: %d viewers, %d frames total (min %d per viewer), newest step %d, steer sent\n",
		addr, len(vs), total, minRecv, maxStep)
	if total == 0 {
		fatalf("no frames received from %s", addr)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "live-load: "+format+"\n", args...)
	os.Exit(1)
}
