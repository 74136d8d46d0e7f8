// Package world runs an mpi communicator across OS processes (and, in
// principle, machines) over internal/fabric connections — the sharding step
// that turns the paper's simulated P-scaling into measured P-scaling: every
// rank becomes a real process, and the binomial/ring/Rabenseifner collective
// schedules in internal/mpi execute their actual communication patterns over
// TCP.
//
// Topology: a tiny registry (usually hosted by the launcher, cmd/gosensei-
// run) accepts one registration per rank — a fabric Hello carrying
// the world identity (id, epoch, size), the claimed rank, and the rank's own
// listener address — answers each immediately with a Welcome confirming the
// placement, and, once all N ranks are present, broadcasts the complete
// rank -> address table (FrameWorldInfo). The ranks then mesh directly:
// rank i dials every rank j < i and accepts from every j > i, so each pair
// shares exactly one connection, authenticated by the same Hello/Welcome
// exchange, held on each side as a fabric.Session. Point-to-point sends
// travel as FrameEnvelope frames; a clean shutdown exchanges FrameEOS with
// every peer, so a raw EOF is always a peer death and poisons the local
// mailbox (mpi.World.Fail) instead of waiting out the deadlock timeout.
//
// The same code runs over real sockets ("tcp") and the in-process loopback
// pipes ("loopback"), which is how the contract tests assert that a
// collective's result is bit-identical across transports.
package world

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gosensei/internal/fabric"
	"gosensei/internal/mpi"
)

// DefaultJoinTimeout bounds how long Join waits for the rest of the world
// to register, and Close waits for peers' EOS.
const DefaultJoinTimeout = 30 * time.Second

// FaultHook is the world-domain fault seam, consulted once per wire send by
// the hosting rank. A kill answer aborts the rank: connections close
// abruptly (no EOS, so peers observe a genuine death) and the rank panics
// with the returned token. Implemented by faultline's WorldPlan.
type FaultHook interface {
	// BeforeSend observes the rank's next wire send and returns the
	// fired-fault repro token and true when the rank must die now.
	BeforeSend(rank int) (token string, kill bool)
}

// Config describes one rank's membership in a world.
type Config struct {
	// Network selects the fabric: "tcp" or "loopback".
	Network string
	// Registry is the registry address to dial (host:port for tcp, the
	// registry's loopback name otherwise).
	Registry string
	// ID and Epoch identify the world incarnation; every member and the
	// registry must agree, so stragglers from a previous launch are refused.
	ID    uint64
	Epoch uint32
	// Rank and Size place this process in the world.
	Rank, Size int
	// JoinTimeout bounds the wait for the world to assemble (and for peers'
	// EOS at Close); 0 means DefaultJoinTimeout.
	JoinTimeout time.Duration
	// RecvTimeout overrides mpi's deadlock-detection timeout when > 0.
	RecvTimeout time.Duration
	// Faults is the mpi-domain injector (delay/dup/reorder/stall/crash),
	// applied to wire sends exactly as the in-process runtime applies it to
	// mailbox puts.
	Faults mpi.FaultInjector
	// Hook is the world-domain fault seam (rankkill); nil disables it.
	Hook FaultHook
	// WrapConn, when set, decorates every mesh connection (keyed by the
	// peer's rank) — the faultline conn-wrapper seam.
	WrapConn func(rank int, c fabric.Conn) fabric.Conn
}

// World is one process's membership: the mesh of peer connections plus the
// mpi world it feeds. It implements mpi.Transport.
type World struct {
	cfg  Config
	mw   *mpi.World
	comm *mpi.Comm
	// peersMu guards slot writes during meshing against a concurrent
	// teardown from an early-failing pump; steady-state Send reads need no
	// lock because Join's completion orders them after every write.
	peersMu sync.Mutex
	peers   []*peer // indexed by world rank; nil at cfg.Rank

	pumps    sync.WaitGroup
	shutdown atomic.Bool // Close in progress: read errors are expected
	failed   atomic.Bool
}

// peer is one mesh connection; seq numbers its frames.
type peer struct {
	rank int
	sess *fabric.Session
	seq  atomic.Uint32
}

// errDone is how a handler tells its session's pump to stop cleanly.
var errDone = errors.New("world: done")

// Join assembles this rank's membership: listen for peers, register with the
// registry, receive the address book, and mesh with every peer. It returns
// once all Size-1 connections are up and pumping.
func Join(cfg Config) (*World, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("world: invalid rank %d of %d", cfg.Rank, cfg.Size)
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = DefaultJoinTimeout
	}
	w := &World{cfg: cfg, peers: make([]*peer, cfg.Size)}
	var opts []mpi.Option
	if cfg.RecvTimeout > 0 {
		opts = append(opts, mpi.WithRecvTimeout(cfg.RecvTimeout))
	}
	if cfg.Faults != nil {
		opts = append(opts, mpi.WithFaults(cfg.Faults))
	}
	w.mw, w.comm = mpi.NewWorld(cfg.Rank, cfg.Size, w, opts...)
	if cfg.Size == 1 {
		return w, nil // a world of one has no wire
	}

	ls, err := fabric.Listen(cfg.Network, w.listenAddr())
	if err != nil {
		return nil, fmt.Errorf("world: rank %d listen: %w", cfg.Rank, err)
	}
	defer func() { _ = ls.Close() }() // mesh is fully connected before Join returns

	addrs, err := w.register(ls.Addr().String())
	if err != nil {
		return nil, err
	}

	// Mesh: accept the higher ranks while dialing the lower ones, so no
	// pairwise ordering can deadlock the 5s handshake windows.
	errc := make(chan error, 2)
	go func() { errc <- w.acceptPeers(ls) }()
	go func() { errc <- w.dialPeers(addrs) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			w.closePeers()
			return nil, err
		}
	}
	return w, nil
}

// listenAddr picks the rank's listener address: an ephemeral TCP port, or a
// collision-free loopback name derived from the world identity.
func (w *World) listenAddr() string {
	if w.cfg.Network == "tcp" {
		return "127.0.0.1:0"
	}
	return fmt.Sprintf("world-%d-e%d-rank-%d", w.cfg.ID, w.cfg.Epoch, w.cfg.Rank)
}

// register announces this rank to the registry and waits for the address
// book naming every member.
func (w *World) register(selfAddr string) ([]string, error) {
	cfg := w.cfg
	conn, err := fabric.Dial(cfg.Network, cfg.Registry)
	if err != nil {
		return nil, fmt.Errorf("world: rank %d dial registry: %w", cfg.Rank, err)
	}
	sess, welcome, err := fabric.DialHello(conn, fabric.Hello{
		Role:       fabric.RoleRank,
		Rank:       uint32(cfg.Rank),
		WorldID:    cfg.ID,
		WorldEpoch: cfg.Epoch,
		WorldSize:  uint32(cfg.Size),
		PeerAddr:   selfAddr,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("world: rank %d register: %w", cfg.Rank, err)
	}
	defer func() { _ = sess.Close() }() // the registry conn dies after the address book
	if welcome.WorldID != cfg.ID || welcome.WorldEpoch != cfg.Epoch || int(welcome.PeerRank) != cfg.Rank {
		return nil, fmt.Errorf("world: registry confirmed world %d epoch %d rank %d, want %d/%d/%d",
			welcome.WorldID, welcome.WorldEpoch, welcome.PeerRank, cfg.ID, cfg.Epoch, cfg.Rank)
	}
	// The address book arrives once the last rank registers; give the whole
	// world the join window to show up.
	var addrs []string
	err = sess.Run(cfg.JoinTimeout, func(typ fabric.FrameType, _ uint32, payload []byte) error {
		if typ != fabric.FrameWorldInfo {
			return fmt.Errorf("expected world-info, got %s", typ)
		}
		id, epoch, book, err := decodeWorldInfo(payload)
		if err != nil {
			return err
		}
		if id != cfg.ID || epoch != cfg.Epoch || len(book) != cfg.Size {
			return fmt.Errorf("address book names world %d epoch %d size %d, want %d/%d/%d",
				id, epoch, len(book), cfg.ID, cfg.Epoch, cfg.Size)
		}
		addrs = book
		return errDone
	})
	if err != errDone {
		return nil, fmt.Errorf("world: rank %d await address book: %w", cfg.Rank, err)
	}
	return addrs, nil
}

// acceptPeers accepts one mesh connection from every higher rank within the
// join window: a rank that registered and then died before dialing closes
// the listener when the window expires, instead of parking this rank in
// Accept forever.
func (w *World) acceptPeers(ls fabric.Listener) error {
	cfg := w.cfg
	var expired atomic.Bool
	deadline := time.AfterFunc(cfg.JoinTimeout, func() {
		expired.Store(true)
		_ = ls.Close() // Join's deferred Close is then a no-op
	})
	defer deadline.Stop()
	seen := make(map[int]bool)
	for have := 0; have < cfg.Size-1-cfg.Rank; {
		conn, err := ls.Accept()
		if err != nil && expired.Load() {
			var missing []int
			for r := cfg.Rank + 1; r < cfg.Size; r++ {
				if !seen[r] {
					missing = append(missing, r)
				}
			}
			return fmt.Errorf("world: rank %d: ranks %v never dialed within %v", cfg.Rank, missing, cfg.JoinTimeout)
		}
		if err != nil {
			return fmt.Errorf("world: rank %d accept peer: %w", cfg.Rank, err)
		}
		sess, h, err := fabric.AcceptHello(conn, nil)
		if err != nil {
			return fmt.Errorf("world: rank %d peer handshake: %w", cfg.Rank, err)
		}
		from := int(h.Rank)
		if h.Role != fabric.RoleRank || h.WorldID != cfg.ID || h.WorldEpoch != cfg.Epoch ||
			from <= cfg.Rank || from >= cfg.Size || seen[from] {
			// A straggler from another incarnation (or a confused dialer):
			// refuse it without failing the world.
			_ = sess.Close()
			continue
		}
		if err := sess.SendWelcome(fabric.Welcome{WorldID: cfg.ID, WorldEpoch: cfg.Epoch, PeerRank: uint32(from)}); err != nil {
			return fmt.Errorf("world: rank %d welcome peer %d: %w", cfg.Rank, from, err)
		}
		seen[from] = true
		w.addPeer(from, sess)
		have++
	}
	return nil
}

// dialPeers connects to every lower rank from the address book.
func (w *World) dialPeers(addrs []string) error {
	cfg := w.cfg
	for j := 0; j < cfg.Rank; j++ {
		conn, err := fabric.Dial(cfg.Network, addrs[j])
		if err != nil {
			return fmt.Errorf("world: rank %d dial rank %d: %w", cfg.Rank, j, err)
		}
		sess, welcome, err := fabric.DialHello(conn, fabric.Hello{
			Role:       fabric.RoleRank,
			Rank:       uint32(cfg.Rank),
			WorldID:    cfg.ID,
			WorldEpoch: cfg.Epoch,
			WorldSize:  uint32(cfg.Size),
		}, nil)
		if err != nil {
			return fmt.Errorf("world: rank %d handshake with rank %d: %w", cfg.Rank, j, err)
		}
		if welcome.WorldID != cfg.ID || welcome.WorldEpoch != cfg.Epoch || int(welcome.PeerRank) != cfg.Rank {
			_ = sess.Close()
			return fmt.Errorf("world: rank %d confirmed as world %d epoch %d rank %d by rank %d, want %d/%d/%d",
				cfg.Rank, welcome.WorldID, welcome.WorldEpoch, welcome.PeerRank, j, cfg.ID, cfg.Epoch, cfg.Rank)
		}
		w.addPeer(j, sess)
	}
	return nil
}

// addPeer installs a meshed session and starts its read pump.
func (w *World) addPeer(rank int, sess *fabric.Session) {
	if w.cfg.WrapConn != nil {
		sess.WrapConn(func(c fabric.Conn) fabric.Conn { return w.cfg.WrapConn(rank, c) })
	}
	w.peersMu.Lock()
	w.peers[rank] = &peer{rank: rank, sess: sess}
	w.peersMu.Unlock()
	w.pumps.Add(1)
	go w.pump(rank, sess)
}

// pump decodes one peer's incoming frames into the local mailbox. It exits
// on the peer's EOS (clean) or any error (peer death -> fail the world,
// unless we are shutting down ourselves).
func (w *World) pump(rank int, sess *fabric.Session) {
	defer w.pumps.Done()
	err := sess.Run(0, func(typ fabric.FrameType, _ uint32, payload []byte) error {
		switch typ {
		case fabric.FrameEnvelope:
			env, err := mpi.DecodeEnvelope(payload)
			if err != nil {
				err = fmt.Errorf("world: envelope from rank %d: %w", rank, err)
			} else {
				err = w.mw.Deliver(&env)
			}
			if err != nil {
				w.fail(err)
				return errDone
			}
		case fabric.FrameEOS:
			return errDone
		}
		// Unknown control traffic is ignored, the same forward-
		// compatibility stance the staging endpoint takes.
		return nil
	})
	if err != errDone && !w.shutdown.Load() {
		w.fail(fmt.Errorf("world: rank %d died (connection from rank %d: %v)", rank, w.cfg.Rank, err))
	}
}

// fail poisons the local mailbox and tears down every connection so blocked
// sends unblock; the first failure wins.
func (w *World) fail(err error) {
	if !w.failed.CompareAndSwap(false, true) {
		return
	}
	w.mw.Fail(err)
	w.closePeers()
}

func (w *World) closePeers() {
	w.peersMu.Lock()
	peers := make([]*peer, len(w.peers))
	copy(peers, w.peers)
	w.peersMu.Unlock()
	for _, p := range peers {
		if p != nil {
			_ = p.sess.Close() // already failing or done; nothing reads the result
		}
	}
}

// Run executes f as the hosted rank, converting a panic (rank crash, fault
// injection, transport failure) into an error the caller can surface — the
// same recovery contract mpi.Run gives goroutine ranks. A failed rank tears
// its connections down without a goodbye, as a dead process's are, so its
// peers fail at once instead of waiting out the receive timeout.
func (w *World) Run(f func(c *mpi.Comm) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("world: %w", mpi.PanicError(w.cfg.Rank, p))
		}
		if err != nil {
			w.fail(err)
		}
	}()
	return f(w.comm)
}

// Send implements mpi.Transport: route the envelope to its peer connection.
func (w *World) Send(env *mpi.Envelope) error {
	if w.cfg.Hook != nil {
		if token, kill := w.cfg.Hook.BeforeSend(w.cfg.Rank); kill {
			// Die abruptly: no EOS, connections torn down mid-protocol, so
			// peers observe a genuine rank death.
			w.shutdown.Store(true)
			w.closePeers()
			panic(mpi.InjectedCrash{Reason: "faultline: fired " + token})
		}
	}
	if env.WDst < 0 || env.WDst >= len(w.peers) || w.peers[env.WDst] == nil {
		return fmt.Errorf("world: no connection to rank %d", env.WDst)
	}
	p := w.peers[env.WDst]
	return p.sess.SendFunc(fabric.FrameEnvelope, p.seq.Add(1)-1, func(dst []byte) []byte {
		return mpi.AppendEnvelope(dst, env)
	})
}

// Close implements mpi.Transport: exchange EOS with every peer, bounded by
// the join timeout, then tear the mesh down. Call it after the rank's work
// is done; a non-nil error means some peer never said goodbye.
func (w *World) Close() error {
	w.shutdown.Store(true)
	var firstErr error
	for _, p := range w.peers {
		if p == nil {
			continue
		}
		if err := p.sess.Send(fabric.FrameEOS, p.seq.Add(1)-1, nil); err != nil && firstErr == nil && !w.failed.Load() {
			firstErr = fmt.Errorf("world: rank %d goodbye to rank %d: %w", w.cfg.Rank, p.rank, err)
		}
	}
	done := make(chan struct{})
	go func() {
		w.pumps.Wait()
		close(done)
	}()
	timeout := w.cfg.JoinTimeout
	if timeout <= 0 {
		timeout = DefaultJoinTimeout
	}
	select {
	case <-done:
	case <-time.After(timeout):
		if firstErr == nil {
			firstErr = fmt.Errorf("world: rank %d timed out waiting for peer goodbyes", w.cfg.Rank)
		}
	}
	w.closePeers()
	return firstErr
}
