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
//     once (FrameRef) and swaps it into the hub's snapshot. Nobody is pushed
//     to: a subscriber takes the snapshot itself when its epoch is newer
//     than the last one it took, so delivery is newest-wins and a slower
//     viewer skips straight to the newest frame instead of accumulating a
//     backlog.
//   - A consumer with nothing new parks on the hub's waiting list. Publish
//     only sets one cap-1 latch; the hub's single waker goroutine swaps the
//     list out and sets each parked consumer's latch. Publish is O(1) in
//     the number of viewers, so a thousand attached viewers cannot slow the
//     simulation's publish path.
//   - A late joiner's first take is the snapshot, so a viewer sees the
//     current image immediately instead of waiting for the next publish.
//   - Steering commands coalesce last-writer-wins per command name with
//     epoch tags, so a steer flood costs bounded memory and DrainCommands
//     returns a deterministic, update-ordered list for the rank-0
//     broadcast.
package live

import (
	"sort"
	"sync"
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

// maxPendingCommands caps the coalesced steering table: at most this many
// distinct command names are held between DrainCommands calls, evicting the
// stalest (lowest-epoch) entry when a new name arrives full. Steering
// vocabularies are small, and the cap is what keeps a steer flood from
// growing memory without bound.
const maxPendingCommands = 64

// Hub connects one running pipeline to its viewers. All methods are safe
// for concurrent use; the pipeline and every viewer run on their own
// goroutines.
type Hub struct {
	done   chan struct{}
	exited chan struct{} // closed by the waker on its way out
	wake   chan struct{} // cap 1: set by Publish for the waker, a latch
	closed sync.Once

	// pubMu guards the snapshot, the waiting list and every subscription's
	// epochs. Publish holds it for a pointer swap — never across encoding,
	// waking or any per-viewer work — so publish cost is flat in viewer
	// count; the waker holds it for one pass of field reads over the
	// waiting list.
	pubMu   sync.Mutex
	latest  *FrameRef
	epoch   uint64 // also the number of frames published
	viewers int
	stopped bool
	// waiting holds the consumers parked since the waker last ran. The
	// waker swaps it for its own spare buffer, so neither is reallocated.
	waiting []*Subscription

	// The coalesced steering table: last-writer-wins per name, bounded by
	// maxPending, drained in epoch order.
	steerMu    sync.Mutex
	steer      map[string]Command
	steerEpoch uint64
	maxPending int
}

// NewHub returns an empty hub.
func NewHub() *Hub { return newHub(maxPendingCommands) }

// newHub is NewHub with the steering table's size open, for the tests that
// need a small one.
func newHub(maxPending int) *Hub {
	h := &Hub{
		done:       make(chan struct{}),
		exited:     make(chan struct{}),
		wake:       make(chan struct{}, 1),
		steer:      make(map[string]Command),
		maxPending: maxPending,
	}
	go h.waker()
	return h
}

// Close stops the waker and waits for it to exit, drops the snapshot and
// ends every Next. Idempotent; a hub used for the life of the process need
// never be closed.
func (h *Hub) Close() {
	h.closed.Do(func() {
		close(h.done)
		<-h.exited
		h.pubMu.Lock()
		old := h.latest
		h.latest, h.stopped = nil, true
		h.pubMu.Unlock()
		old.Release()
	})
}

// Publish stores a frame as the latest and, if a consumer is parked, wakes
// the waker. The frame is encoded once into an immutable shared buffer;
// slow viewers skip to the newest frame rather than stalling the
// simulation (a live viewer wants the current image, not a backlog).
func (h *Hub) Publish(f Frame) {
	h.pubMu.Lock()
	h.epoch++
	e := h.epoch
	h.pubMu.Unlock()
	ref := newFrameRef(f, e) // encode once, outside every lock
	old, parked := ref, false
	h.pubMu.Lock()
	if !h.stopped && (h.latest == nil || h.latest.Epoch() < e) {
		old, h.latest = h.latest, ref // the snapshot's reference
		parked = len(h.waiting) > 0
	}
	h.pubMu.Unlock()
	old.Release()
	if parked {
		set(h.wake)
	}
}

// set sets a cap-1 latch; a latch already set covers this call.
func set(latch chan struct{}) {
	select {
	case latch <- struct{}{}:
	default:
	}
}

// Frames reports how many frames were published.
func (h *Hub) Frames() int {
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	return int(h.epoch)
}

// Viewers reports the number of attached viewers.
func (h *Hub) Viewers() int {
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	return h.viewers
}

// waker is the hub's one goroutine. Each time its latch is set it swaps the
// waiting list out and polls every consumer on it: one with a newer frame
// is due a wake-up, one without is parked again, a canceled one is dropped.
// The polls are field reads under one pubMu hold; the wake-ups — the
// O(viewers) scheduler work — happen after it, off the publish path.
func (h *Hub) waker() {
	defer close(h.exited)
	var woken []*Subscription
	for {
		select {
		case <-h.done:
			return
		case <-h.wake:
		}
		h.pubMu.Lock()
		woken, h.waiting = h.waiting, woken[:0]
		due := woken[:0] // filled in place behind the loop's index
		for _, s := range woken {
			if s.poll() {
				due = append(due, s)
			}
		}
		h.pubMu.Unlock()
		for _, s := range due {
			set(s.rdy)
		}
		clear(woken) // a dropped consumer is not kept alive by the spare
	}
}

// Subscription is one attached viewer on the zero-copy path. It holds no
// frame: it takes the hub's snapshot when that is newer than the last one
// it took, so a viewer that stops draining costs the hub nothing.
type Subscription struct {
	hub   *Hub
	taken uint64        // epoch of the last frame taken; guarded by hub.pubMu
	fired uint64        // epoch the latch last fired for; guarded by hub.pubMu
	rdy   chan struct{} // cap 1: set once per epoch newer than taken
	done  chan struct{} // closed by Cancel, under hub.pubMu
}

// SubscribeRef attaches a viewer on the zero-copy path. Its first take is
// the hub's snapshot, so a late joiner has the current frame immediately.
// Cancel detaches.
func (h *Hub) SubscribeRef() *Subscription {
	h.pubMu.Lock()
	h.viewers++
	h.pubMu.Unlock()
	return &Subscription{hub: h, rdy: make(chan struct{}, 1), done: make(chan struct{})}
}

// poll reports whether the latch is due: the snapshot is newer than both
// the last frame taken and the last epoch the latch fired for, which it
// records as fired. Otherwise it parks the subscription on the waiting
// list, unless it is canceled. The caller holds hub.pubMu and, on true,
// sets the latch.
func (s *Subscription) poll() bool {
	h := s.hub
	select {
	case <-s.done:
		return false
	default:
	}
	if h.latest != nil && h.latest.Epoch() > max(s.taken, s.fired) {
		s.fired = h.latest.Epoch()
		return true
	}
	if !h.stopped {
		h.waiting = append(h.waiting, s)
	}
	return false
}

// ready arms the latch and returns it. The latch is edge-triggered: it
// fires once for each epoch newer than the last frame taken, not for as
// long as an untaken frame exists. A consumer calls ready again only after
// receiving from it, since each call that finds nothing new parks the
// subscription once more.
func (s *Subscription) ready() <-chan struct{} {
	s.hub.pubMu.Lock()
	due := s.poll()
	s.hub.pubMu.Unlock()
	if due {
		set(s.rdy)
	}
	return s.rdy
}

// take returns the hub's snapshot if it is newer than the last frame taken,
// or nil. The retain happens under pubMu, so it cannot race the hub's
// release of a displaced snapshot into frameRefPool. The caller owns the
// reference and must Release it.
func (s *Subscription) take() *FrameRef {
	h := s.hub
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	if h.latest == nil || h.latest.Epoch() <= s.taken {
		return nil
	}
	s.taken = h.latest.Epoch()
	h.latest.Retain()
	return h.latest
}

// Next blocks until a frame newer than the last one taken is available
// (returning an owned reference the caller must Release), or the
// subscription is canceled or its hub closed (returning nil).
func (s *Subscription) Next() *FrameRef {
	for {
		if ref := s.take(); ref != nil {
			return ref
		}
		select {
		case <-s.ready():
		case <-s.done:
			return nil
		case <-s.hub.done:
			return nil
		}
	}
}

// Cancel detaches the viewer. Idempotent. The waker drops the subscription
// from the waiting list; it is woken here so that a detached viewer does not
// wait on the list for the next publish.
func (s *Subscription) Cancel() {
	h := s.hub
	h.pubMu.Lock()
	defer h.pubMu.Unlock()
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	h.viewers--
	set(h.wake)
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
