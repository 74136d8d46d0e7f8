// Package lockblock is the golden fixture for the lock-blocking rule: a
// sync.Mutex/RWMutex held across an operation that may park the goroutine
// indefinitely. Each flagged line is the PR 3 deadlock shape in miniature;
// the clean functions pin the exemptions (unlock-before-block, non-blocking
// selects, sync.Cond.Wait, go-spawn, allowlisted lock-releasing helpers,
// reasoned suppressions).
package lockblock

import (
	"log"
	"net"
	"os"
	"sync"
	"time"
)

// Node is a little stateful peer: one state mutex, one RW index lock, a
// channel, a condition, and a connection.
type Node struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	ch   chan int
	conn net.Conn
}

// SendUnderLock holds the state mutex across a channel send.
func (n *Node) SendUnderLock(v int) {
	n.mu.Lock()
	n.ch <- v // want lock-blocking
	n.mu.Unlock()
}

// RecvUnderDeferredUnlock: defer keeps the lock held for the whole body.
func (n *Node) RecvUnderDeferredUnlock() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want lock-blocking
}

// SendAfterUnlock releases first; the send is lock-free.
func (n *Node) SendAfterUnlock(v int) {
	n.mu.Lock()
	n.mu.Unlock()
	n.ch <- v
}

// SelectUnderLock: a select without default blocks until a case fires.
func (n *Node) SelectUnderLock(done chan struct{}) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	select { // want lock-blocking
	case <-done:
		return 0
	case v := <-n.ch:
		return v
	}
}

// NonBlockingSelectUnderLock: the default clause makes the select a poll.
func (n *Node) NonBlockingSelectUnderLock(v int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case n.ch <- v:
		return true
	default:
		return false
	}
}

// TerminatingBranchKeepsLock: the early-return arm unlocks only for itself;
// the fallthrough path still holds mu at the send.
func (n *Node) TerminatingBranchKeepsLock(closed bool, v int) {
	n.mu.Lock()
	if closed {
		n.mu.Unlock()
		return
	}
	n.ch <- v // want lock-blocking
	n.mu.Unlock()
}

// BothArmsUnlock: every path through the if releases mu, so the send below
// is lock-free on either arm.
func (n *Node) BothArmsUnlock(fast bool, v int) {
	n.mu.Lock()
	if fast {
		n.mu.Unlock()
	} else {
		n.mu.Unlock()
	}
	n.ch <- v
}

// RangeChanUnderRLock: a read lock held across a channel range stalls every
// writer for as long as the producer keeps the channel open.
func (n *Node) RangeChanUnderRLock() (sum int) {
	n.rw.RLock()
	defer n.rw.RUnlock()
	for v := range n.ch { // want lock-blocking
		sum += v
	}
	return sum
}

// SleepUnderLock: time.Sleep is a may-block seed like any other.
func (n *Node) SleepUnderLock() {
	n.mu.Lock()
	time.Sleep(10 * time.Millisecond) // want lock-blocking
	n.mu.Unlock()
}

// WriteUnderLock holds the state mutex across a conn write — the literal
// PR 3 client bug.
func (n *Node) WriteUnderLock(frame []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, err := n.conn.Write(frame) // want lock-blocking
	return err
}

// WaitForWork: sync.Cond.Wait releases the lock it is conditioned on; this
// is the one sanctioned way to block under a mutex.
func (n *Node) WaitForWork() {
	n.mu.Lock()
	for len(n.ch) == 0 {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

// drain blocks on its own: the summary seeds it from the channel receive.
func (n *Node) drain() int { return <-n.ch }

// TransitiveBlockUnderLock never blocks lexically — the receive hides one
// call down, and the interprocedural summary carries it here.
func (n *Node) TransitiveBlockUnderLock() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drain() // want lock-blocking
}

// SpawnUnderLock: `go` hands the blocking call to another goroutine; the
// spawner returns immediately and the lock is safe.
func (n *Node) SpawnUnderLock() {
	n.mu.Lock()
	go n.drain()
	n.mu.Unlock()
}

// SuppressedBoundedWrite pins the //lint:ignore path: a deadline-bounded
// write under a dedicated write lock, suppressed with a reason.
func (n *Node) SuppressedBoundedWrite(frame []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.conn.SetWriteDeadline(time.Time{}); err != nil {
		return err
	}
	//lint:ignore lock-blocking fixture: deadline-bounded write under a dedicated serialization lock
	_, err := n.conn.Write(frame)
	return err
}

// ClosureBodyRunsLater: building a closure under the lock is fine — its
// body executes whenever the caller invokes it, lock state unknown.
func (n *Node) ClosureBodyRunsLater() func() {
	n.mu.Lock()
	f := func() { n.ch <- 1 }
	n.mu.Unlock()
	return f
}

// ClosureOwnScope: a literal's body is walked as its own function, with its
// own lock state.
func (n *Node) ClosureOwnScope() func(int) {
	return func(v int) {
		n.mu.Lock()
		n.ch <- v // want lock-blocking
		n.mu.Unlock()
	}
}

// ExitArmKeepsLock: os.Exit never returns, so the unlock on the exiting arm
// is that arm's own; the fall-through path still holds mu at the send.
func (n *Node) ExitArmKeepsLock(bad bool, v int) {
	n.mu.Lock()
	if bad {
		n.mu.Unlock()
		os.Exit(1)
	}
	n.ch <- v // want lock-blocking
	n.mu.Unlock()
}

// FatalArmKeepsLock: the same shape behind log.Fatalf.
func (n *Node) FatalArmKeepsLock(err error, v int) {
	n.mu.Lock()
	if err != nil {
		n.mu.Unlock()
		log.Fatalf("node: %v", err)
	}
	n.ch <- v // want lock-blocking
	n.mu.Unlock()
}
