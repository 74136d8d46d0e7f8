// Package deadlockregress pins the PR 3 concurrency incidents as lint
// regressions. Each function reproduces, in miniature, a bug shape that
// shipped (or nearly shipped) in the staging fabric and was debugged at
// runtime; had the concurrency rules existed then, every one would have
// been a build-time finding. The shapes:
//
//   - Send: the staging client held its state mutex across a blocking conn
//     write while the recv pump needed the same mutex to process the
//     Release that would have unblocked the peer — a two-process deadlock
//     on a loopback transport.
//   - Reconnect: the reconnect path replayed the in-flight window under the
//     state lock BEFORE restarting the recv pump, so a slow peer filled the
//     kernel buffer and wedged the lock (the reconnect pump-ordering bug;
//     the production fix sends the Welcome first and replays outside the
//     lock).
//   - redialForever: the loopback dial hang — a retry loop with no done
//     check, arming a fresh unstoppable timer per attempt.
package deadlockregress

import (
	"net"
	"sync"
	"time"
)

// Client models the PR 3 staging client before the fix: one mutex guards
// both the in-flight window and the write path.
type Client struct {
	mu       sync.Mutex
	inflight map[uint32][]byte
	conn     net.Conn
}

// Send is the deadlock: the state lock rides across the blocking write, so
// the recv pump's Release (which needs mu) can never free the peer.
func (c *Client) Send(seq uint32, frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight[seq] = frame
	_, err := c.conn.Write(frame) // want lock-blocking
	return err
}

// Release is the recv-pump side that starves while Send blocks.
func (c *Client) Release(upTo uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for seq := range c.inflight {
		if seq <= upTo {
			delete(c.inflight, seq)
		}
	}
}

// Reconnect replays the window under the state lock before the pump is
// back: every write can block on a peer that cannot drain yet.
func (c *Client) Reconnect(conn net.Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn = conn
	for _, frame := range c.inflight {
		if _, err := conn.Write(frame); err != nil { // want lock-blocking
			return err
		}
	}
	return nil
}

// redialForever is the loopback dial hang: no done check ends the retry
// loop, and each attempt arms a timer nothing can stop.
func redialForever(dial func() error) {
	go func() {
		for { // want goroutine-leak
			if dial() == nil {
				continue
			}
			<-time.After(time.Millisecond) // want goroutine-leak
		}
	}()
}

// Redial exists to spawn the regress shape the way the dialer did.
func Redial(dial func() error) { redialForever(dial) }
