// Package mpi provides an in-process message-passing runtime modeled on MPI.
//
// Ranks are goroutines launched by Run; each rank receives a *Comm handle
// through which it performs point-to-point communication (Send/Recv with tag
// matching) and collective operations (Barrier, Bcast, Reduce, Allreduce,
// Gatherv, Allgather, Alltoall).
// Communicators can be split into sub-communicators with Split, mirroring
// MPI_Comm_split.
//
// The package exists because this repository reproduces an HPC paper
// (SC16 SENSEI) whose software stack is built on MPI, and Go has no MPI
// bindings in the standard library. The collectives select algorithms by
// message size the way MPICH does — recursive doubling and Rabenseifner for
// Allreduce, ring for Allgather, binomial trees for Bcast/Gather/Scatter,
// round-ordered pairwise exchange for Alltoall — so that their communication
// step counts and per-rank byte volumes, which drive the scaling behavior
// the paper measures, match real MPI implementations. Per-rank traffic
// odometers (TrafficStats) expose those volumes for tests and benchmarks.
//
// Message payloads are copied on Send and copied again into the receiver's
// buffer, preserving message-passing semantics: after a Send returns, the
// sender may freely reuse its buffer. SendOwned transfers ownership instead
// of copying; collectives use it with pooled buffers on internal tree hops
// so steady-state reductions do not allocate.
package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Wildcard values for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// DefaultRecvTimeout bounds how long a Recv waits before the runtime declares
// a deadlock. It is deliberately generous; tests that exercise deadlock
// detection shrink it via World options.
const DefaultRecvTimeout = 120 * time.Second

// message is a single in-flight point-to-point message. seq and wsrc are
// only set on the fault-injection path (see faults.go): seq is the per-edge
// delivery sequence used to discard injected duplicates, wsrc the sender's
// world rank keying that tracking.
type message struct {
	src     int // rank of sender within the communicator
	tag     int
	ctx     int // communicator context id
	payload any // copied slice
	seq     uint64
	wsrc    int
}

// mailbox holds pending messages for one world rank. high is the per-sender
// dedup high-water mark, allocated lazily by the fault-injection path and
// nil on every fault-free run. dead, once set by poison, fails every
// receive that finds no queued match — the distributed world's fast path
// from "peer process died" to "collective errors out".
type mailbox struct {
	mu      sync.Mutex
	pending []message
	waiters []chan struct{}
	high    map[int]uint64
	dead    error
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.pending = append(m.pending, msg)
	// Signal under the lock: the sends are non-blocking (cap-1 token
	// channels), and truncating rather than nil-ing keeps the waiters
	// backing array alive so blocked receives never re-grow it.
	for _, w := range m.waiters {
		select {
		case w <- struct{}{}:
		default: // already signaled; one token is enough to trigger a rescan
		}
	}
	m.waiters = m.waiters[:0]
	m.mu.Unlock()
}

// waiterPool recycles wakeup channels across blocking receives. A waiter is
// a capacity-1 token channel rather than a close-once channel so it can be
// reused: put delivers at most one token, and getWaiter drains any stale
// token left by a timed-out wait. A stale registration firing into a reused
// channel only causes a harmless rescan.
var waiterPool sync.Pool

func getWaiter() chan struct{} {
	if v := waiterPool.Get(); v != nil {
		w := v.(chan struct{})
		select {
		case <-w:
		default:
		}
		return w
	}
	return make(chan struct{}, 1)
}

// take removes and returns the first message matching (src, tag, ctx).
// It blocks until a match arrives, the mailbox is poisoned, or the timeout
// elapses. Messages queued before the poison still deliver; only a receive
// that would otherwise wait fails fast.
func (m *mailbox) take(src, tag, ctx int, timeout time.Duration) (message, error) {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		for i, msg := range m.pending {
			if msg.ctx != ctx {
				continue
			}
			if src != AnySource && msg.src != src {
				continue
			}
			if tag != AnyTag && msg.tag != tag {
				continue
			}
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.mu.Unlock()
			return msg, nil
		}
		if m.dead != nil {
			err := m.dead
			m.mu.Unlock()
			return message{}, err
		}
		w := getWaiter()
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return message{}, fmt.Errorf("mpi: recv timeout (possible deadlock) waiting for src=%d tag=%d ctx=%d", src, tag, ctx)
		}
		t := getTimer(remain)
		select {
		case <-w:
			putTimer(t)
			waiterPool.Put(w) // token consumed; channel is clean
		case <-t.C:
			timerPool.Put(t) // fired: C is drained, safe to recycle as-is
			waiterPool.Put(w)
			return message{}, fmt.Errorf("mpi: recv timeout (possible deadlock) waiting for src=%d tag=%d ctx=%d", src, tag, ctx)
		}
	}
}

// poison marks the mailbox dead and wakes every blocked receive. The first
// error sticks; later poisons are no-ops so the most specific failure (the
// one observed first) is what receives report.
func (m *mailbox) poison(err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = err
	}
	for _, w := range m.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	m.waiters = m.waiters[:0]
	m.mu.Unlock()
}

// timerPool recycles deadlock-detection timers across blocking receives;
// every blocked take would otherwise allocate a fresh timer, a measurable
// per-message cost in tight compositing exchanges.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer returns a timer that has NOT fired; it stops it and drains a
// concurrent fire so the next Reset starts from a clean channel.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// World owns one process's share of a communicator universe. For Run it is
// the whole world: every rank's mailbox lives in boxes. For a distributed
// world built with NewWorld, only the locally hosted rank's mailbox is
// non-nil and remote carries envelopes to the rest; a nil remote is the
// single pointer test that keeps the in-process send path at its
// pre-transport cost.
type World struct {
	size        int
	boxes       []*mailbox
	traffic     []trafficCounters
	recvTimeout time.Duration
	faults      FaultInjector
	remote      Transport
}

// Traffic is a snapshot of one rank's point-to-point odometers. Collectives
// are built from the same Send/Recv primitives, so their internal hops are
// counted too; tests and benchmarks use before/after deltas to compare the
// byte volume through a rank under different collective algorithms.
type Traffic struct {
	SentBytes int64
	RecvBytes int64
	SentMsgs  int64
	RecvMsgs  int64
}

// trafficCounters is the mutable, per-world-rank form of Traffic. Padded so
// adjacent ranks' counters do not share a cache line; each rank only ever
// bumps its own.
type trafficCounters struct {
	sentBytes atomic.Int64
	recvBytes atomic.Int64
	sentMsgs  atomic.Int64
	recvMsgs  atomic.Int64
	_         [4]int64
}

// TrafficStats returns the calling rank's cumulative traffic odometers.
func (c *Comm) TrafficStats() Traffic {
	t := &c.world.traffic[c.group[c.rank]]
	return Traffic{
		SentBytes: t.sentBytes.Load(),
		RecvBytes: t.recvBytes.Load(),
		SentMsgs:  t.sentMsgs.Load(),
		RecvMsgs:  t.recvMsgs.Load(),
	}
}

func countSent[T any](c *Comm, n int) {
	t := &c.world.traffic[c.group[c.rank]]
	t.sentBytes.Add(int64(n) * int64(sizeOf[T]()))
	t.sentMsgs.Add(1)
}

func countRecv[T any](c *Comm, n int) {
	t := &c.world.traffic[c.group[c.rank]]
	t.recvBytes.Add(int64(n) * int64(sizeOf[T]()))
	t.recvMsgs.Add(1)
}

// Option configures a World created by Run.
type Option func(*World)

// WithRecvTimeout overrides the deadlock-detection timeout for receives.
func WithRecvTimeout(d time.Duration) Option {
	return func(w *World) { w.recvTimeout = d }
}

// Comm is a communicator: a rank's handle onto a group of ranks.
// The zero value is not usable; Comms are obtained from Run and Split.
type Comm struct {
	world *World
	rank  int   // rank within this communicator
	size  int   // size of this communicator
	group []int // communicator rank -> world rank
	ctx   int   // context id isolating this communicator's traffic
}

// Rank returns the caller's rank within the communicator. A nil communicator
// is a serial run — rank 0 of 1 — so code that only needs to know where it
// is does not have to ask whether it is parallel first.
func (c *Comm) Rank() int {
	if c == nil {
		return 0
	}
	return c.rank
}

// Size returns the number of ranks in the communicator; 1 for nil.
func (c *Comm) Size() int {
	if c == nil {
		return 1
	}
	return c.size
}

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.group[c.rank] }

// Run executes f on n concurrent ranks and waits for all of them.
// Each rank receives a distinct *Comm with ranks 0..n-1. The returned error
// is the first error returned (or panic raised), in rank order; a failed
// rank fails the receives the others are blocked in, so the run ends at once.
func Run(n int, f func(c *Comm) error, opts ...Option) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	w := &World{size: n, boxes: make([]*mailbox, n), traffic: make([]trafficCounters, n), recvTimeout: DefaultRecvTimeout}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
	}
	for _, o := range opts {
		o(w)
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: %w", PanicError(rank, p))
				}
				// A failed rank fails the survivors' receives at once, as a
				// dead peer process does a wire world's, instead of leaving
				// them to wait out the receive timeout.
				if errs[rank] != nil {
					w.Fail(errs[rank])
				}
			}()
			c := &Comm{world: w, rank: rank, size: n, group: group, ctx: 0}
			errs[rank] = f(c)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PanicError is the error of a rank that panicked with p: one line for an
// InjectedCrash, and the panic with its stack for anything else. Call it
// from the deferred function that recovered p.
func PanicError(rank int, p any) error {
	if c, ok := p.(InjectedCrash); ok {
		return fmt.Errorf("rank %d: %w", rank, c)
	}
	return fmt.Errorf("rank %d panicked: %v\n%s", rank, p, debug.Stack())
}

// send delivers a payload (already copied) to dest within this communicator.
func (c *Comm) send(dest, tag int, payload any) {
	if dest < 0 || dest >= c.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dest, c.size))
	}
	if c.world.faults != nil {
		c.sendFaulty(dest, tag, payload)
		return
	}
	c.world.boxes[c.group[dest]].put(message{src: c.rank, tag: tag, ctx: c.ctx, payload: payload})
}

func (c *Comm) recv(src, tag int) (message, error) {
	if src != AnySource && (src < 0 || src >= c.size) {
		return message{}, fmt.Errorf("mpi: recv from invalid rank %d (size %d)", src, c.size)
	}
	return c.world.boxes[c.group[c.rank]].take(src, tag, c.ctx, c.world.recvTimeout)
}

// Send transmits a copy of data to dest with the given tag.
func Send[T any](c *Comm, dest, tag int, data []T) {
	countSent[T](c, len(data))
	if wd := c.remoteDst(dest); wd >= 0 {
		c.sendRemote(buildEnvelope(c, wd, tag, data))
		return
	}
	cp := make([]T, len(data))
	copy(cp, data)
	c.send(dest, tag, cp)
}

// SendOwned transmits data to dest without copying, transferring ownership
// of the slice to the receiver; the sender must not touch data after the
// call. Because ranks share one address space, this is the zero-copy fast
// path for pipelines that recycle message buffers through a process-wide
// pool: the sender drains a buffer from the pool, SendOwned hands it to the
// receiver, and the receiver returns it to the pool when done. Use Send when
// the sender needs to keep its buffer.
//
// The result is what the call did not give away: nil when the slice went to
// an in-process receiver, the slice itself when dest lives in another
// process — its bytes are on the wire, nobody else holds it, and a pooled
// pipeline puts it back instead of leaking one buffer per remote hop.
func SendOwned[T any](c *Comm, dest, tag int, data []T) (spare []T) {
	countSent[T](c, len(data))
	if wd := c.remoteDst(dest); wd >= 0 {
		c.sendRemote(buildEnvelope(c, wd, tag, data))
		return data
	}
	c.send(dest, tag, data)
	return nil
}

// RecvOwned is the receiving half of SendOwned for pooled pipelines: it
// takes a spare buffer from the caller, who must not touch buf after the
// call, and returns the message in a slice the caller owns. An in-process
// message is the sender's own slice, handed over as Recv does, and buf comes
// back unused as spare; a wire envelope is decoded straight into buf (or a
// fresh slice if buf is too small, buf again coming back as spare), so a
// pipeline that recycles data and spare allocates nothing per message on
// either transport. On error data is nil and spare is buf.
func RecvOwned[T any](c *Comm, src, tag int, buf []T) (data, spare []T, err error) {
	msg, err := c.recv(src, tag)
	if err != nil {
		return nil, buf, err
	}
	if env, ok := msg.payload.(*Envelope); ok {
		data, err = decodePayload(env, buf)
		if err != nil {
			return nil, buf, err
		}
		countRecv[T](c, len(data))
		if buf != nil && cap(buf) >= len(data) {
			return data, nil, nil // data is buf, refilled
		}
		return data, buf, nil
	}
	data, ok := msg.payload.([]T)
	if !ok {
		return nil, buf, fmt.Errorf("mpi: recv type mismatch: message from rank %d tag %d holds %T", msg.src, msg.tag, msg.payload)
	}
	countRecv[T](c, len(data))
	return data, buf, nil
}

// SendRecvOwned is SendRecv with SendOwned's ownership transfer applied to
// the outgoing buffer. The received slice is owned by the caller; when both
// hops cross the wire it is the outgoing buffer, refilled.
func SendRecvOwned[T any](c *Comm, dest, sendTag int, data []T, src, recvTag int) ([]T, error) {
	got, _, err := RecvOwned(c, src, recvTag, SendOwned(c, dest, sendTag, data))
	return got, err
}

// Recv blocks until a message with matching source and tag arrives and
// returns its payload together with the actual source rank.
// src may be AnySource and tag may be AnyTag.
func Recv[T any](c *Comm, src, tag int) ([]T, int, error) {
	msg, err := c.recv(src, tag)
	if err != nil {
		return nil, -1, err
	}
	if env, ok := msg.payload.(*Envelope); ok {
		data, derr := decodePayload[T](env, nil)
		if derr != nil {
			return nil, msg.src, derr
		}
		countRecv[T](c, len(data))
		return data, msg.src, nil
	}
	data, ok := msg.payload.([]T)
	if !ok {
		return nil, msg.src, fmt.Errorf("mpi: recv type mismatch: message from rank %d tag %d holds %T", msg.src, msg.tag, msg.payload)
	}
	countRecv[T](c, len(data))
	return data, msg.src, nil
}

// SendRecv performs a simultaneous send and receive, as MPI_Sendrecv.
func SendRecv[T any](c *Comm, dest, sendTag int, data []T, src, recvTag int) ([]T, error) {
	Send(c, dest, sendTag, data)
	got, _, err := Recv[T](c, src, recvTag)
	return got, err
}

// Split partitions the communicator into disjoint sub-communicators, one per
// distinct color, as MPI_Comm_split. Ranks within a sub-communicator are
// ordered by (key, old rank). Every rank of c must call Split.
func (c *Comm) Split(color, key int) (*Comm, error) {
	type ck struct{ Color, Key, Rank int }
	mine := []ck{{color, key, c.rank}}
	all, err := Allgather(c, mine)
	if err != nil {
		return nil, err
	}
	// Deterministic new context id, derived identically on every rank — and,
	// because the inputs are the collectively gathered (color, key) table,
	// identically in every process of a distributed world: contexts form a
	// tree rooted at the world context 0, and the child communicator for the
	// i-th distinct color (sorted) of a parent with context p gets
	// p*(worldSize+1) + i + 1. Uniqueness is by induction on the tree: two
	// children of one parent differ in i; children of different parents
	// sharing a rank have parents sharing that rank, whose contexts differ,
	// and i+1 <= worldSize keeps the mapping injective. No counter, no
	// broadcast — the same Split call yields the same context on every
	// transport.
	colors := map[int]bool{}
	for _, e := range all {
		colors[e.Color] = true
	}
	sorted := sortedKeys(colors)
	ctxOf := map[int]int{}
	for i, col := range sorted {
		ctxOf[col] = c.ctx*(c.world.size+1) + i + 1
	}
	// Build my group: members with my color, sorted by (key, rank).
	var members []ck
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	for i := 1; i < len(members); i++ {
		for j := i; j > 0; j-- {
			a, b := members[j-1], members[j]
			if b.Key < a.Key || (b.Key == a.Key && b.Rank < a.Rank) {
				members[j-1], members[j] = b, a
			} else {
				break
			}
		}
	}
	group := make([]int, len(members))
	myNew := -1
	for i, e := range members {
		group[i] = c.group[e.Rank]
		if e.Rank == c.rank {
			myNew = i
		}
	}
	return &Comm{world: c.world, rank: myNew, size: len(members), group: group, ctx: ctxOf[color]}, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
