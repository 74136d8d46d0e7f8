// Package live implements the interactive-connection capability the paper
// attributes to both Catalyst ("connecting with the ParaView GUI for live,
// interactive visualization") and Libsim ("enables VisIt to connect
// interactively to running simulations for live exploration"), and which
// the PHASTA study exercises as a steering loop: "the SENSEI results close
// the loop on live problem redefinition".
//
// A Hub sits between the running in situ pipeline and any number of
// viewers. The pipeline publishes each rendered frame; viewers attach and
// detach at will (as FlexPath allows mid-run), pull the latest frame, and
// push steering commands that the simulation drains once per step on rank 0
// and broadcasts itself.
//
// The hub is built for fan-out scale (the libyt many-client pattern):
//
//   - Publish encodes the frame into an immutable refcounted buffer exactly
//     once (FrameRef), swaps it into the latest-frame snapshot cache, and
//     wakes K shard pushers — O(1) in the number of viewers, so a thousand
//     attached viewers cannot slow the simulation's publish path.
//   - Viewers hash into shards, each with its own lock and pusher
//     goroutine. Delivery is newest-wins per viewer: a subscription holds
//     at most one undelivered frame, and a slower viewer skips straight to
//     the newest rather than accumulating a backlog.
//   - Late joiners are seeded from the snapshot cache at attach, so a
//     viewer sees the current image immediately instead of waiting for the
//     next publish.
//   - Steering commands coalesce last-writer-wins per command name with
//     epoch tags, so a steer flood costs bounded memory and DrainCommands
//     returns a deterministic, update-ordered list for the rank-0
//     broadcast.
package live

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Frame is one published image.
type Frame struct {
	Step   int
	Width  int
	Height int
	// PNG holds the encoded image bytes. Publish copies them; a frame a
	// wire Viewer's Next returns lends them from the viewer's recycled
	// buffers, valid until that viewer's next Next or Close.
	PNG []byte
}

// Command is one steering request from a viewer, e.g. {"jet-amplitude",
// 1.6} or {"slice-coord", 12}. Epoch is the hub-assigned update tag:
// commands drain in ascending epoch order, and a command superseding an
// earlier one with the same name carries the later epoch.
type Command struct {
	Name  string
	Value float64
	Epoch uint64
}

const (
	// hubShards is the number of subscriber shards (and pusher goroutines)
	// fanning frames out.
	hubShards = 8
	// maxPendingCommands caps the coalesced steering table: at most this
	// many distinct command names are held between DrainCommands calls,
	// evicting the stalest (lowest-epoch) entry when a new name arrives
	// full. Steering vocabularies are small, and the cap is what keeps a
	// steer flood from growing memory without bound.
	maxPendingCommands = 64
)

// Hub connects one running pipeline to its viewers. All methods are safe
// for concurrent use; the pipeline and every viewer run on their own
// goroutines.
type Hub struct {
	shards []*shard
	done   chan struct{}
	closed sync.Once

	// pubMu guards the snapshot cache. It is the only lock Publish takes,
	// held for a pointer swap — never across encoding, delivery, or any
	// per-viewer work — so publish cost is flat in viewer count.
	pubMu   sync.Mutex
	latest  *FrameRef
	epoch   uint64
	frames  int
	stopped bool

	nextSub atomic.Int64

	// The coalesced steering table: last-writer-wins per name, bounded by
	// maxPending, drained in epoch order.
	steerMu    sync.Mutex
	steer      map[string]Command
	steerEpoch uint64
	maxPending int
}

// shard owns a slice of the subscriber registry: its own lock, its own
// pusher goroutine, its own wakeup latch. Publish wakes the pusher; the
// pusher delivers the newest frame to every subscriber in the shard.
type shard struct {
	hub    *Hub
	mu     sync.Mutex
	subs   map[int64]*Subscription
	wakeup chan struct{} // cap 1: a set latch, not a queue
}

// NewHub returns an empty hub.
func NewHub() *Hub { return newHub(hubShards, maxPendingCommands) }

// newHub is NewHub with the two sizes open, for the tests that need a
// small table or an uneven shard count.
func newHub(shards, maxPending int) *Hub {
	h := &Hub{
		shards:     make([]*shard, shards),
		done:       make(chan struct{}),
		steer:      make(map[string]Command),
		maxPending: maxPending,
	}
	for i := range h.shards {
		sh := &shard{hub: h, subs: make(map[int64]*Subscription), wakeup: make(chan struct{}, 1)}
		h.shards[i] = sh
		go sh.run()
	}
	return h
}

// Close detaches every subscriber and stops the shard pushers. Idempotent;
// a hub used for the life of the process need never be closed.
func (h *Hub) Close() {
	h.closed.Do(func() {
		close(h.done)
		for _, sh := range h.shards {
			sh.mu.Lock()
			subs := make([]*Subscription, 0, len(sh.subs))
			for _, s := range sh.subs {
				subs = append(subs, s)
			}
			sh.mu.Unlock()
			for _, s := range subs {
				s.Cancel()
			}
		}
		h.pubMu.Lock()
		old := h.latest
		h.latest = nil
		h.stopped = true
		h.pubMu.Unlock()
		old.Release()
	})
}

// Publish stores a frame as the latest and wakes the shard pushers. The
// frame is encoded once into an immutable shared buffer; slow viewers skip
// to the newest frame rather than stalling the simulation (a live viewer
// wants the current image, not a backlog).
func (h *Hub) Publish(f Frame) {
	h.pubMu.Lock()
	h.epoch++
	e := h.epoch
	h.frames++
	h.pubMu.Unlock()
	ref := newFrameRef(f, e) // encode once, outside every lock
	old := ref
	h.pubMu.Lock()
	if !h.stopped && (h.latest == nil || h.latest.Epoch() < e) {
		old = h.latest
		h.latest = ref // the snapshot cache's reference
	}
	h.pubMu.Unlock()
	old.Release()
	for _, sh := range h.shards {
		select {
		case sh.wakeup <- struct{}{}:
		default: // pusher already signaled; it will see the newest frame
		}
	}
}

// LatestRef returns a retained reference to the most recent frame, or nil
// if none was published. The caller must Release it.
func (h *Hub) LatestRef() *FrameRef {
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	if h.latest != nil {
		h.latest.Retain()
	}
	return h.latest
}

// Frames reports how many frames were published.
func (h *Hub) Frames() int {
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	return h.frames
}

// Viewers reports the number of attached viewers.
func (h *Hub) Viewers() int {
	n := 0
	for _, sh := range h.shards {
		sh.mu.Lock()
		n += len(sh.subs)
		sh.mu.Unlock()
	}
	return n
}

// run is the shard's pusher: woken by Publish, it fans the newest frame
// out to the shard's subscribers. Wakeups coalesce (the latch holds one
// token), so under publish pressure a shard delivers the newest frame and
// skips the ones already superseded — the O(viewers) work rides here, off
// the publish path, split across shards.
func (sh *shard) run() {
	var lastEpoch uint64
	for {
		select {
		case <-sh.hub.done:
			return
		case <-sh.wakeup:
		}
		ref := sh.hub.LatestRef()
		if ref == nil {
			continue
		}
		if ref.Epoch() == lastEpoch {
			ref.Release()
			continue
		}
		lastEpoch = ref.Epoch()
		sh.mu.Lock()
		for _, sub := range sh.subs {
			sub.deliver(ref)
		}
		sh.mu.Unlock()
		ref.Release()
	}
}

// Subscription is one attached viewer on the zero-copy path. It holds at
// most one undelivered frame — always the newest — so a viewer that stops
// draining costs the hub one frame reference, not a growing queue.
type Subscription struct {
	sh        *shard
	id        int64
	lastEpoch uint64                   // newest epoch delivered; guarded by sh.mu
	slot      atomic.Pointer[FrameRef] // newest undelivered frame (owned ref)
	rdy       chan struct{}            // cap 1: set when the slot is filled
	done      chan struct{}            // closed by Cancel
	once      sync.Once
}

// SubscribeRef attaches a viewer on the zero-copy path and seeds it with
// the snapshot cache, so a late joiner has the current frame immediately.
// Cancel detaches.
func (h *Hub) SubscribeRef() *Subscription {
	id := h.nextSub.Add(1)
	sh := h.shards[int(uint64(id)%uint64(len(h.shards)))]
	sub := &Subscription{sh: sh, id: id, rdy: make(chan struct{}, 1), done: make(chan struct{})}
	// Register and seed under one shard critical section: deliveries are
	// serialized on sh.mu, and the seed reads the snapshot cache inside it,
	// so the seeded frame can never be older than one a racing pusher
	// already delivered.
	sh.mu.Lock()
	sh.subs[id] = sub
	if ref := h.LatestRef(); ref != nil {
		sub.deliver(ref)
		ref.Release()
	}
	sh.mu.Unlock()
	return sub
}

// deliver installs ref as the subscription's newest frame, releasing any
// frame the viewer never took (newest-wins), and sets the ready latch.
// Callers hold sh.mu; the epoch guard makes delivery exactly-once per frame
// even when a registration seed races a pending shard wakeup for the same
// snapshot.
func (s *Subscription) deliver(ref *FrameRef) {
	if ref.Epoch() <= s.lastEpoch {
		return
	}
	s.lastEpoch = ref.Epoch()
	ref.Retain()
	s.slot.Swap(ref).Release()
	select {
	case s.rdy <- struct{}{}:
	default:
	}
}

// Ready returns the wakeup latch: it receives (at least) once after each
// slot update. Pair with Take in a select loop.
func (s *Subscription) Ready() <-chan struct{} { return s.rdy }

// Take removes and returns the newest undelivered frame, or nil if the
// viewer already took it. The caller owns the reference and must Release.
func (s *Subscription) Take() *FrameRef { return s.slot.Swap(nil) }

// Next blocks until a frame is available (returning an owned reference the
// caller must Release) or the subscription is canceled (returning nil).
func (s *Subscription) Next() *FrameRef {
	for {
		if ref := s.Take(); ref != nil {
			return ref
		}
		select {
		case <-s.rdy:
		case <-s.done:
			return nil
		}
	}
}

// Cancel detaches the viewer and drops its pending frame. Idempotent.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.sh.mu.Lock()
		delete(s.sh.subs, s.id)
		s.sh.mu.Unlock()
		// No deliver can be in flight past this point (delivery holds
		// sh.mu), so draining the slot here is final.
		s.slot.Swap(nil).Release()
		close(s.done)
	})
}

// SendCommand queues a steering request, coalescing last-writer-wins per
// command name: only the newest value of each name survives to the next
// DrainCommands, under a bounded table size — a steer flood (or a long gap
// between drains) costs O(distinct names), never unbounded growth.
func (h *Hub) SendCommand(name string, value float64) {
	h.steerMu.Lock()
	defer h.steerMu.Unlock()
	h.steerEpoch++
	if _, ok := h.steer[name]; !ok && len(h.steer) >= h.maxPending {
		// Table full with a new name: evict the stalest entry (lowest
		// epoch) — the command least recently refreshed by any viewer.
		evict, best := "", uint64(0)
		for n, c := range h.steer {
			if evict == "" || c.Epoch < best {
				evict, best = n, c.Epoch
			}
		}
		delete(h.steer, evict)
	}
	h.steer[name] = Command{Name: name, Value: value, Epoch: h.steerEpoch}
}

// DrainCommands returns and clears the coalesced commands in ascending
// epoch order (deterministic: last-update order, not map order). The
// simulation's rank 0 calls this once per step and broadcasts the result
// to its peers (steering must reach every rank identically).
func (h *Hub) DrainCommands() []Command {
	h.steerMu.Lock()
	var out []Command
	if len(h.steer) > 0 {
		out = make([]Command, 0, len(h.steer))
		for _, c := range h.steer {
			out = append(out, c)
		}
		clear(h.steer)
	}
	h.steerMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}
