package mpi

import "time"

// SendFault describes the injected actions for one point-to-point message;
// the zero value is "no fault". It is produced per send by a FaultInjector.
type SendFault struct {
	// Seq is the 1-based per-(src,dst)-edge message index the injector
	// assigned. The receiving mailbox uses it to drop duplicated messages
	// (Dup) exactly once; 0 disables the dedup tracking.
	Seq uint64
	// Delay and Stall sleep the sender before delivery (per-edge message
	// latency and per-rank compute jitter respectively — they differ only
	// in how the injector indexes them).
	Delay, Stall time.Duration
	// Dup delivers the message twice; the duplicate is discarded by the
	// mailbox's seq high-water mark, exercising the dedup path.
	Dup bool
	// Reorder lets the message jump ahead of messages from other senders
	// queued at the destination — never ahead of an earlier message from
	// the same sender and communicator, preserving MPI's non-overtaking
	// guarantee.
	Reorder bool
	// Crash, when non-empty, panics the sending rank with an InjectedCrash
	// carrying this message (recovered by Run into a per-rank error): a
	// fail-stop rank death at a deterministic point.
	Crash string
}

// InjectedCrash is the panic value of an injected rank death. Run reports
// it as a one-line error; a panic of any other value is a bug, and Run's
// error carries its stack.
type InjectedCrash struct{ Reason string }

// Error returns the reason, e.g. "faultline: injected crash (…)".
func (c InjectedCrash) Error() string { return c.Reason }

// FaultInjector is consulted once per message on the faulty send path. Ranks
// are world ranks (injection identity must not depend on communicator
// splits). Implementations must be safe for concurrent use; outside this
// package see internal/faultline.
type FaultInjector interface {
	BeforeSend(src, dst, tag int) SendFault
}

// WithFaults installs a fault injector into the world. Every send then takes
// the faulty path; without this option the send path does not change — a
// single nil pointer test — so the injector costs nothing when disabled.
func WithFaults(fi FaultInjector) Option {
	return func(w *World) { w.faults = fi }
}

// sendFaulty is the injected counterpart of send, kept out of line so the
// fault-free path stays tiny.
func (c *Comm) sendFaulty(dest, tag int, payload any) {
	wsrc, wdst := c.group[c.rank], c.group[dest]
	f := c.world.faults.BeforeSend(wsrc, wdst, tag)
	if f.Crash != "" {
		panic(InjectedCrash{f.Crash})
	}
	if f.Stall > 0 {
		time.Sleep(f.Stall)
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	msg := message{src: c.rank, tag: tag, ctx: c.ctx, payload: payload, seq: f.Seq, wsrc: wsrc}
	box := c.world.boxes[wdst]
	box.putFaulty(msg, f.Reorder)
	if f.Dup {
		box.putFaulty(msg, false)
	}
}

// putFaulty delivers a message from the injected send path: duplicates
// (same per-edge seq from the same sender world rank) are dropped via a
// high-water mark, and a reordered message is inserted ahead of other
// senders' queued messages but never ahead of an earlier message from its
// own (sender, communicator) stream.
func (m *mailbox) putFaulty(msg message, reorder bool) {
	m.mu.Lock()
	if msg.seq > 0 {
		if m.high == nil {
			m.high = make(map[int]uint64)
		}
		if msg.seq <= m.high[msg.wsrc] {
			m.mu.Unlock()
			return // duplicate delivery: already seen this edge seq
		}
		m.high[msg.wsrc] = msg.seq
	}
	pos := len(m.pending)
	if reorder {
		// Find the insertion point: just after the last queued message from
		// the same sender and communicator (non-overtaking), ahead of
		// everything else.
		pos = 0
		for i := len(m.pending) - 1; i >= 0; i-- {
			if m.pending[i].wsrc == msg.wsrc && m.pending[i].ctx == msg.ctx {
				pos = i + 1
				break
			}
		}
	}
	m.pending = append(m.pending, message{})
	copy(m.pending[pos+1:], m.pending[pos:])
	m.pending[pos] = msg
	for _, w := range m.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	m.waiters = m.waiters[:0]
	m.mu.Unlock()
}
