package world

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosensei/internal/fabric"
	"gosensei/internal/faultline"
	"gosensei/internal/mpi"
)

// The faultline world plan is the production FaultHook.
var _ FaultHook = (*faultline.WorldPlan)(nil)

// worldIDs hands out process-unique world identities so loopback listener
// names never collide across parallel tests.
var worldIDs atomic.Uint64

func testConfig(network string) Config {
	return Config{
		Network:     network,
		ID:          1000 + worldIDs.Add(1),
		Epoch:       1,
		JoinTimeout: 20 * time.Second,
		RecvTimeout: 20 * time.Second,
	}
}

// launch runs fn on every rank of an n-rank world over network and fails the
// test on any rank error.
func launch(t *testing.T, network string, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	for rank, err := range Launch(n, testConfig(network), fn) {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestPointToPoint exercises the raw envelope path: POD payloads in both
// directions, tag matching, and the gob fallback for pointer-carrying types.
func TestPointToPoint(t *testing.T) {
	for _, network := range []string{"loopback", "tcp"} {
		t.Run(network, func(t *testing.T) {
			launch(t, network, 2, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					mpi.Send(c, 1, 7, []float64{1.5, -2.25, 3.75})
					got, src, err := mpi.Recv[string](c, 1, 8)
					if err != nil {
						return err
					}
					if src != 1 || len(got) != 2 || got[0] != "staging" || got[1] != "world" {
						return fmt.Errorf("rank 0 got %v from %d", got, src)
					}
				} else {
					got, src, err := mpi.Recv[float64](c, 0, 7)
					if err != nil {
						return err
					}
					if src != 0 || len(got) != 3 || got[1] != -2.25 {
						return fmt.Errorf("rank 1 got %v from %d", got, src)
					}
					mpi.Send(c, 0, 8, []string{"staging", "world"})
				}
				return nil
			})
		})
	}
}

// TestRecvTypeMismatch pins the decode error when the receiver's element
// type disagrees with the envelope.
func TestRecvTypeMismatch(t *testing.T) {
	errs := Launch(2, testConfig("loopback"), func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			mpi.Send(c, 1, 3, []int32{1, 2})
			return nil
		}
		_, _, err := mpi.Recv[float32](c, 0, 3)
		if err == nil || !strings.Contains(err.Error(), "type mismatch") {
			return fmt.Errorf("want type mismatch error, got %v", err)
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// collectiveWorkout runs the full collective families on one communicator —
// both Allreduce algorithms (the vector length straddles the Rabenseifner
// crossover), segmented Bcast, Gatherv, a scatter from one root, Allgather,
// Alltoall, Reduce, Barrier — and verifies every result against closed
// forms.
func collectiveWorkout(c *mpi.Comm) error {
	n, r := c.Size(), c.Rank()

	// Allreduce, short vector: recursive doubling.
	short := []float64{float64(r + 1), float64(2 * (r + 1))}
	recv := make([]float64, 2)
	if err := mpi.Allreduce(c, short, recv, mpi.OpSum); err != nil {
		return fmt.Errorf("allreduce short: %w", err)
	}
	tri := float64(n * (n + 1) / 2)
	if recv[0] != tri || recv[1] != 2*tri {
		return fmt.Errorf("allreduce short: got %v, want [%g %g]", recv, tri, 2*tri)
	}

	// Allreduce, long vector: Rabenseifner (reduce-scatter + allgather),
	// 3000 float64 = 24000 bytes > the 8KiB crossover.
	long := make([]float64, 3000)
	for i := range long {
		long[i] = float64(r+1) * float64(i%17)
	}
	longRecv := make([]float64, len(long))
	if err := mpi.Allreduce(c, long, longRecv, mpi.OpSum); err != nil {
		return fmt.Errorf("allreduce long: %w", err)
	}
	for i := range longRecv {
		want := tri * float64(i%17)
		if longRecv[i] != want {
			return fmt.Errorf("allreduce long[%d]: got %g, want %g", i, longRecv[i], want)
		}
	}

	// Bcast, past the 64KiB pipeline segment size so the binomial tree
	// actually pipelines: 10k float64 = 80KB.
	wide := make([]float64, 10000)
	if r == 0 {
		for i := range wide {
			wide[i] = math.Sqrt(float64(i))
		}
	}
	if err := mpi.Bcast(c, wide, 0); err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	for i := 0; i < len(wide); i += 997 {
		if wide[i] != math.Sqrt(float64(i)) {
			return fmt.Errorf("bcast[%d]: got %g", i, wide[i])
		}
	}

	// Gatherv (ragged) at a non-zero root.
	root := (n - 1) % n
	mine := make([]int32, r+1)
	for i := range mine {
		mine[i] = int32(r*100 + i)
	}
	parts, err := mpi.Gatherv(c, mine, root)
	if err != nil {
		return fmt.Errorf("gatherv: %w", err)
	}
	if r == root {
		for src, p := range parts {
			if len(p) != src+1 || p[0] != int32(src*100) {
				return fmt.Errorf("gatherv from %d: %v", src, p)
			}
		}
	}

	// Scatter from the same root: an Alltoall in which only the root's
	// parts are non-empty.
	scatterParts := make([][]int64, n)
	if r == root {
		for i := range scatterParts {
			scatterParts[i] = []int64{int64(i) * 7, int64(i) * 7}
		}
	}
	scattered, err := mpi.Alltoall(c, scatterParts)
	if err != nil {
		return fmt.Errorf("scatter: %w", err)
	}
	if part := scattered[root]; len(part) != 2 || part[0] != int64(r)*7 {
		return fmt.Errorf("scatter: rank %d got %v", r, scattered[root])
	}

	// Allgather (uniform) + Alltoall + Reduce.
	all, err := mpi.Allgather(c, []int32{int32(r)})
	if err != nil {
		return fmt.Errorf("allgather: %w", err)
	}
	for i, v := range all {
		if v != int32(i) {
			return fmt.Errorf("allgather[%d]: got %d", i, v)
		}
	}
	outParts := make([][]int32, n)
	for i := range outParts {
		outParts[i] = []int32{int32(r*1000 + i)}
	}
	inParts, err := mpi.Alltoall(c, outParts)
	if err != nil {
		return fmt.Errorf("alltoall: %w", err)
	}
	for src, p := range inParts {
		if len(p) != 1 || p[0] != int32(src*1000+r) {
			return fmt.Errorf("alltoall from %d: %v", src, p)
		}
	}
	sumRecv := make([]float64, 1)
	if err := mpi.Reduce(c, []float64{float64(r + 1)}, sumRecv, mpi.OpSum, root); err != nil {
		return fmt.Errorf("reduce: %w", err)
	}
	if want := float64(n * (n + 1) / 2); r == root && sumRecv[0] != want {
		return fmt.Errorf("reduce: got %g, want %g", sumRecv[0], want)
	}

	return c.Barrier()
}

// TestCollectivesLoopback runs the full collective workout across world
// sizes, including non-powers-of-two (the binomial/Rabenseifner remainder
// paths), over in-process pipes.
func TestCollectivesLoopback(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("P%d", n), func(t *testing.T) {
			t.Parallel()
			launch(t, "loopback", n, collectiveWorkout)
		})
	}
}

// TestCollectivesTCP runs the same workout over real sockets.
func TestCollectivesTCP(t *testing.T) {
	for _, n := range []int{3, 4} {
		n := n
		t.Run(fmt.Sprintf("P%d", n), func(t *testing.T) {
			launch(t, "tcp", n, collectiveWorkout)
		})
	}
}

// splitFingerprint is one rank's view of a Split: the sub-communicator
// placement plus a sub-collective result, enough to detect any divergence in
// rank mapping or routing between transports.
func splitFingerprint(c *mpi.Comm) (string, error) {
	// Three groups by color = rank % 3; reversed key order within a group.
	sub, err := c.Split(c.Rank()%3, -c.Rank())
	if err != nil {
		return "", err
	}
	sum := make([]int64, 1)
	if err := mpi.Allreduce(sub, []int64{int64(c.Rank() + 1)}, sum, mpi.OpSum); err != nil {
		return "", err
	}
	// Split the sub-communicator again: the ctx-derivation must stay unique
	// and deterministic one level down, too.
	leaf, err := sub.Split(sub.Rank()%2, sub.Rank())
	if err != nil {
		return "", err
	}
	leafIDs, err := mpi.Allgather(leaf, []int32{int32(c.Rank())})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("world=%d sub=%d/%d sum=%d leaf=%d/%d members=%v",
		c.Rank(), sub.Rank(), sub.Size(), sum[0], leaf.Rank(), leaf.Size(), leafIDs), nil
}

// TestSplitContract is the cross-transport contract: the same color/key
// function must produce identical sub-communicator rank maps — and identical
// sub-collective results — whether the world is goroutine ranks (proc),
// in-process pipes (loopback), or real sockets (tcp).
func TestSplitContract(t *testing.T) {
	const n = 8
	gather := func(run func(fn func(c *mpi.Comm) error) error) ([]string, error) {
		prints := make([]string, n)
		err := run(func(c *mpi.Comm) error {
			fp, err := splitFingerprint(c)
			if err != nil {
				return err
			}
			prints[c.Rank()] = fp
			return nil
		})
		return prints, err
	}

	proc, err := gather(func(fn func(c *mpi.Comm) error) error {
		return mpi.Run(n, fn)
	})
	if err != nil {
		t.Fatalf("proc: %v", err)
	}
	for _, network := range []string{"loopback", "tcp"} {
		got, err := gather(func(fn func(c *mpi.Comm) error) error {
			for rank, e := range Launch(n, testConfig(network), fn) {
				if e != nil {
					return fmt.Errorf("rank %d: %w", rank, e)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		for r := range proc {
			if got[r] != proc[r] {
				t.Errorf("%s rank %d diverges from proc:\n  proc: %s\n  %s: %s",
					network, r, proc[r], network, got[r])
			}
		}
	}
}

// killAt is a test FaultHook: kill the rank at its op-th wire send.
type killAt struct {
	rank int
	op   int
	n    atomic.Int64
}

func (k *killAt) BeforeSend(rank int) (string, bool) {
	if rank != k.rank {
		return "", false
	}
	if k.n.Add(1) == int64(k.op) {
		return fmt.Sprintf("test:world.rankkill(rank=%d,op=%d)", k.rank, k.op), true
	}
	return "", false
}

// TestRankDeathPoisonsPeers kills rank 1 mid-collective and verifies the
// surviving ranks fail fast with a peer-death error (mailbox poisoning, not
// the deadlock timeout) while the dying rank surfaces the repro token.
func TestRankDeathPoisonsPeers(t *testing.T) {
	cfg := testConfig("loopback")
	cfg.RecvTimeout = time.Minute // far beyond the test deadline: failure must not come from here
	hook := &killAt{rank: 1, op: 2}
	cfg.Hook = hook

	start := time.Now()
	errs := Launch(4, cfg, func(c *mpi.Comm) error {
		recv := make([]float64, 1)
		for step := 0; step < 50; step++ {
			if err := mpi.Allreduce(c, []float64{1}, recv, mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "world.rankkill") {
		t.Errorf("rank 1: want rankkill token in error, got %v", errs[1])
	}
	survivors := 0
	for _, r := range []int{0, 2, 3} {
		if errs[r] != nil {
			survivors++
			if !strings.Contains(errs[r].Error(), "died") && !strings.Contains(errs[r].Error(), "closed") {
				t.Errorf("rank %d: want peer-death error, got %v", r, errs[r])
			}
		}
	}
	if survivors == 0 {
		t.Error("no surviving rank observed the death")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("death took %v to propagate; poisoning should fail fast", elapsed)
	}
}

// TestSendToExitedPeerIsAnError: on a two-rank world whose rank 1 has died,
// rank 0's send over the closed connection is an error and not a panic, and
// the receive after it names the dead rank.
func TestSendToExitedPeerIsAnError(t *testing.T) {
	cfg := testConfig("loopback")
	cfg.RecvTimeout = time.Minute
	cfg.Hook = &killAt{rank: 1, op: 1}
	errs := Launch(2, cfg, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			// Rank 0 has joined once it says go; rank 1's first send kills it.
			if _, _, err := mpi.RecvOwned[float64](c, 0, 6, nil); err != nil {
				return err
			}
			mpi.SendOwned(c, 0, 7, []float64{1})
			return nil
		}
		mpi.SendOwned(c, 1, 6, []float64{0})
		// The first receive returns once the connection's death is seen.
		if _, _, err := mpi.RecvOwned[float64](c, 1, 7, nil); err == nil {
			return fmt.Errorf("receive from the dying rank succeeded")
		}
		mpi.SendOwned(c, 1, 8, []float64{2})
		_, _, err := mpi.RecvOwned[float64](c, 1, 8, nil)
		return err
	})
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "rank 1") || strings.Contains(errs[0].Error(), "panicked") {
		t.Errorf("rank 0: err = %v, want an error naming rank 1 and no panic", errs[0])
	}
}

// TestStragglerRefused verifies the epoch check: a rank from a previous
// incarnation is refused by the registry and cannot join the new world.
func TestStragglerRefused(t *testing.T) {
	cfg := testConfig("loopback")
	reg, err := NewRegistry(cfg.Network, registryAddr(cfg), cfg.ID, cfg.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := reg.Serve()
		served <- err
	}()

	stale := cfg
	stale.Rank, stale.Size, stale.Registry = 0, 2, reg.Addr()
	stale.Epoch = cfg.Epoch - 1 // previous incarnation
	stale.JoinTimeout = 2 * time.Second
	if _, err := Join(stale); err == nil {
		t.Error("stale-epoch rank joined the new world")
	}

	_ = reg.Close()
	<-served
}

// TestJoinTimeoutBoundsAccept: a higher rank that registers and then dies
// before dialing must not park a lower rank in Accept. Join fails once the
// join window expires, naming the rank that never dialed.
func TestJoinTimeoutBoundsAccept(t *testing.T) {
	cfg := testConfig("loopback")
	reg, err := NewRegistry(cfg.Network, registryAddr(cfg), cfg.ID, cfg.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := reg.Serve()
		served <- err
	}()

	// Rank 1 registers and never dials.
	conn, err := fabric.Dial(cfg.Network, reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ghost, _, err := fabric.DialHello(conn, fabric.Hello{
		Role: fabric.RoleRank, Rank: 1, WorldID: cfg.ID, WorldEpoch: cfg.Epoch, WorldSize: 2,
		PeerAddr: "world-ghost-rank-1",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ghost.Close() }()

	rank0 := cfg
	rank0.Rank, rank0.Size, rank0.Registry = 0, 2, reg.Addr()
	rank0.JoinTimeout = 200 * time.Millisecond
	joined := make(chan error, 1)
	go func() {
		w, err := Join(rank0)
		if err == nil {
			_ = w.Close()
		}
		joined <- err
	}()
	// It takes its address book, as a rank does before it dies.
	err = ghost.Run(5*time.Second, func(fabric.FrameType, uint32, []byte) error { return errDone })
	if err != errDone {
		t.Fatalf("rank 1 await address book: %v", err)
	}
	select {
	case err := <-joined:
		if err == nil || !strings.Contains(err.Error(), "ranks [1] never dialed") {
			t.Errorf("Join returned %v, want the ranks that never dialed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Join still waiting for rank 1 to dial after 5s")
	}
	if err := <-served; err != nil {
		t.Errorf("registry: %v", err)
	}
}

// TestWorldInfoCodec round-trips and fault-checks the address-book payload.
func TestWorldInfoCodec(t *testing.T) {
	addrs := []string{"127.0.0.1:4001", "", "world-9-e2-rank-2"}
	p := appendWorldInfo(nil, 42, 7, addrs)
	id, epoch, got, err := decodeWorldInfo(p)
	if err != nil || id != 42 || epoch != 7 {
		t.Fatalf("decode: id=%d epoch=%d err=%v", id, epoch, err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Errorf("addr[%d]: got %q, want %q", i, got[i], addrs[i])
		}
	}
	for cut := 1; cut < len(p); cut += 5 {
		if _, _, _, err := decodeWorldInfo(p[:cut]); err == nil && cut < len(p) {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	if _, _, _, err := decodeWorldInfo(append(p, 0)); err == nil {
		t.Error("trailing byte not detected")
	}

	// A CRC-valid but hostile count must be refused before it sizes the
	// slice: 0xFFFFFFFF entries would ask for 64 GiB of string headers.
	hostile := appendWorldInfo(nil, 42, 7, []string{""})
	binary.LittleEndian.PutUint32(hostile[12:16], 0xFFFFFFFF)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = decodeWorldInfo(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("entry count larger than the payload not detected")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("hostile entry count allocated %d bytes before being refused", grew)
	}
}

// TestSingleRankWorld: a world of one needs no registry, no wire, and no
// goodbye partner.
func TestSingleRankWorld(t *testing.T) {
	w, err := Join(Config{Network: "loopback", Rank: 0, Size: 1, ID: worldIDs.Add(1), Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		recv := make([]float64, 1)
		if err := mpi.Allreduce(c, []float64{3}, recv, mpi.OpSum); err != nil {
			return err
		}
		if recv[0] != 3 {
			return fmt.Errorf("got %g", recv[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptEnvelopeFailsTheWorld: a well-formed frame carrying an envelope
// no sender can produce — 2^36 elements in twelve bytes, which used to reach
// make([]T, Count) in the receiving rank — is refused where it is decoded,
// and the receive that waited for it fails with that cause, not a panic, an
// out-of-memory throw or the deadlock timeout.
func TestCorruptEnvelopeFailsTheWorld(t *testing.T) {
	cfg := testConfig("loopback")
	cfg.RecvTimeout = time.Minute // the failure must not come from here
	reg, err := NewRegistry(cfg.Network, registryAddr(cfg), cfg.ID, cfg.Epoch, 2)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := reg.Serve()
		served <- err
	}()
	worlds := make([]*World, 2)
	var wg sync.WaitGroup
	for rank := range worlds {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := cfg
			c.Rank, c.Size, c.Registry = rank, 2, reg.Addr()
			w, err := Join(c)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			worlds[rank] = w
		}(rank)
	}
	wg.Wait()
	if err := <-served; err != nil || t.Failed() {
		t.Fatal(err)
	}

	const tag = 5
	hostile := mpi.AppendEnvelope(nil, &mpi.Envelope{WSrc: 1, WDst: 0, Src: 1, Tag: tag, Elem: "float32", Count: 3, Data: make([]byte, 12)})
	binary.LittleEndian.PutUint64(hostile[40:48], 1<<36) // the count field
	to0 := worlds[1].peers[0]
	if err := to0.sess.Send(fabric.FrameEnvelope, to0.seq.Add(1)-1, hostile); err != nil {
		t.Fatal(err)
	}
	err = worlds[0].Run(func(c *mpi.Comm) error {
		_, _, err := mpi.Recv[float32](c, 1, tag)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "world: envelope from rank 1: mpi: envelope claims 68719476736 elements in 12 payload bytes") {
		t.Errorf("receive on rank 0: %v, want the refused envelope as the cause", err)
	}
	for _, w := range worlds {
		_ = w.Close() // rank 0 has failed and hung up on rank 1; nothing to report
	}
}
