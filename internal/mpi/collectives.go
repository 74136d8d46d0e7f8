// Collective operations with MPICH-style size-based algorithm selection.
//
// Every collective here used to be the naive textbook shape: Allreduce was
// reduce-then-broadcast, Allgather concatenated on rank 0 and broadcast the
// whole flat buffer twice, Gather was a linear root flood, and every
// tree hop allocated a fresh message. The paper's scaling story (Figs. 3-7)
// is driven by exactly these costs — global min/max reductions feed every
// analysis method and gather/allgather feed compositing and I/O — so this
// file now selects algorithms by message size the way real MPI
// implementations do:
//
//   - Allreduce: recursive doubling for short vectors (latency-bound),
//     Rabenseifner (recursive-halving reduce-scatter + recursive-doubling
//     allgather) for long ones. The bottleneck rank moves ~2n bytes instead
//     of the 2n·log P of reduce+bcast.
//   - Allgather: a ring — P-1 rounds of neighbor exchanges, each
//     rank forwarding the block it just received — replacing the old
//     root-gather plus two whole-buffer broadcasts.
//   - Gatherv: a binomial tree (log P rounds at the root instead of P-1
//     point-to-point messages).
//   - Bcast: binomial for short payloads, segmented and pipelined down the
//     same tree for long ones so deep trees stream rather than
//     store-and-forward.
//   - Alltoall: true round-ordered pairwise exchange — in round r every rank
//     sends to (rank+r) mod P and receives from (rank-r) mod P, so each
//     mailbox sees exactly one message per round.
//
// The data path is allocation-free at steady state: internal tree hops ship
// pooled buffers as *[]T — a pointer is boxed into the message interface and
// into sync.Pool without allocating, so the same header object circulates
// between ranks forever — and reduction application is chunked through
// internal/parallel.For for large buffers. Buffers handed to callers are
// always fresh or fully owned; pooled memory never escapes.
package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"gosensei/internal/parallel"
)

// Number constrains the element types usable with arithmetic reductions.
type Number interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// Op identifies a reduction operation.
type Op int

// Reduction operations supported by Reduce and Allreduce. OpMinMax is
// the fused range operation: the first half of the vector is combined with
// min and the second half with max, so the ubiquitous "global [lo, hi]"
// pattern costs one collective round instead of two.
const (
	OpSum Op = iota
	OpMin
	OpMax
	OpProd
	OpMinMax
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpProd:
		return "prod"
	case OpMinMax:
		return "minmax"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Algorithm-selection thresholds, in payload bytes. The crossover points
// follow the MPICH defaults in spirit: latency-bound algorithms below,
// bandwidth-frugal ones above.
const (
	// allreduceLongMin is the payload size above which Allreduce switches
	// from recursive doubling to Rabenseifner.
	allreduceLongMin = 8 << 10
	// bcastSegBytes is both the pipeline-segment size and the threshold
	// above which Bcast streams segments down the binomial tree.
	bcastSegBytes = 64 << 10
	// applyGrain is the parallel-for chunk size (in elements) for reduction
	// application; buffers at least two grains long fan out across the
	// rank's thread budget.
	applyGrain = 16 << 10
)

// sizeOf reports the in-memory size of one element of type T.
func sizeOf[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// bufPools recycles message and accumulator buffers per element type. The
// pooled unit is a *[]T header object: pointers box into sync.Pool and into
// the message payload interface without allocating, so once a buffer exists
// it circulates between ranks — drawn by a sender, shipped through a
// mailbox, returned by the receiver — with zero allocations per hop.
var bufPools sync.Map // reflect.Type (*T) -> *sync.Pool of *[]T

func poolFor[T any]() *sync.Pool {
	key := reflect.TypeOf((*T)(nil))
	if p, ok := bufPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := bufPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// getBuf returns a pooled buffer resized to length n with arbitrary
// contents. Callers must fully overwrite it before reading. Capacities are
// rounded up to a power of two so that buffers cycling through differently
// sized windows (Rabenseifner halves, Bcast segments) converge onto a small
// set of size classes instead of reallocating on every mismatch.
func getBuf[T any](n int) *[]T {
	if v := poolFor[T]().Get(); v != nil {
		ptr := v.(*[]T)
		if cap(*ptr) >= n {
			*ptr = (*ptr)[:n]
		} else {
			*ptr = make([]T, n, roundUpPow2(n))
		}
		return ptr
	}
	s := make([]T, n, roundUpPow2(n))
	return &s
}

func roundUpPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// putBuf returns a buffer to the pool. Only buffers obtained from getBuf or
// received from an internal hop may be put; slices handed to callers are
// theirs and must never come back here.
func putBuf[T any](ptr *[]T) {
	poolFor[T]().Put(ptr)
}

// sendBuf ships a pooled buffer to dest on a reserved collective tag,
// transferring ownership: the receiver returns it to the pool (or keeps
// recycling it). The pointer payload makes the in-process hop
// allocation-free. A remote destination gets the buffer's bytes on the wire
// instead, and the buffer goes straight back to the local pool — ownership
// "transfers" to the copy in flight.
func sendBuf[T any](c *Comm, dest, tag int, ptr *[]T) {
	countSent[T](c, len(*ptr))
	if wd := c.remoteDst(dest); wd >= 0 {
		c.sendRemote(buildEnvelope(c, wd, tag, *ptr))
		putBuf(ptr)
		return
	}
	c.send(dest, tag, ptr)
}

// recvBuf receives a pooled buffer shipped with sendBuf. The caller owns the
// buffer until it putBufs it onward. A wire envelope decodes into a pooled
// buffer, so the collectives' steady-state allocation profile holds on both
// transports.
func recvBuf[T any](c *Comm, src, tag int) (*[]T, error) {
	msg, err := c.recv(src, tag)
	if err != nil {
		return nil, err
	}
	if env, ok := msg.payload.(*Envelope); ok {
		// getBuf is sized by the envelope's count: check it first.
		if derr := checkPayload[T](env); derr != nil {
			env.release()
			return nil, derr
		}
		ptr := getBuf[T](env.Count)
		if _, derr := decodePayload(env, *ptr); derr != nil {
			putBuf(ptr)
			return nil, derr
		}
		countRecv[T](c, env.Count)
		return ptr, nil
	}
	ptr, ok := msg.payload.(*[]T)
	if !ok {
		return nil, fmt.Errorf("mpi: collective payload mismatch: message from rank %d tag %d holds %T", msg.src, msg.tag, msg.payload)
	}
	countRecv[T](c, len(*ptr))
	return ptr, nil
}

// sendRecvBuf exchanges pooled buffers with partner on one tag.
func sendRecvBuf[T any](c *Comm, partner, tag int, ptr *[]T) (*[]T, error) {
	sendBuf(c, partner, tag, ptr)
	return recvBuf[T](c, partner, tag)
}

// applyRange combines src into dst element-wise. off is the global index of
// dst[0] within the full reduction vector and split the OpMinMax boundary:
// global indices below split reduce with min, the rest with max. Both are
// ignored by the scalar ops.
func applyRange[T Number](op Op, dst, src []T, off, split int) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpProd:
		for i := range dst {
			dst[i] *= src[i]
		}
	case OpMinMax:
		b := split - off
		if b < 0 {
			b = 0
		}
		if b > len(dst) {
			b = len(dst)
		}
		for i := 0; i < b; i++ {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
		for i := b; i < len(dst); i++ {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic("mpi: unknown reduction op " + op.String())
	}
}

// apply chunks applyRange through the rank's parallel worker budget when the
// buffer is long enough to amortize the fan-out. Chunk boundaries depend
// only on the length, and the operation is element-wise, so results are
// bit-identical at any worker count.
func apply[T Number](c *Comm, op Op, dst, src []T, off, split int) {
	if len(dst) >= 2*applyGrain {
		if w := parallel.Budget(c.world.size); w > 1 {
			parallel.For(w, len(dst), applyGrain, func(lo, hi int) {
				applyRange(op, dst[lo:hi], src[lo:hi], off+lo, split)
			})
			return
		}
	}
	applyRange(op, dst, src, off, split)
}

// opSplit validates an op against a vector length and returns the OpMinMax
// boundary (-1 for the scalar ops).
func opSplit(coll string, op Op, n int) (int, error) {
	if op != OpMinMax {
		return -1, nil
	}
	if n%2 != 0 {
		return 0, fmt.Errorf("mpi: %s: OpMinMax needs an even-length vector, got %d", coll, n)
	}
	return n / 2, nil
}

// Reserved tag space for collectives; user point-to-point tags must stay
// below collTagBase (gosenseilint's mpi-tag-hygiene rule enforces this).
const (
	collTagBase = 1 << 28
	tagBarrier  = collTagBase + iota
	tagBcast
	tagReduce
	tagGather
	tagGatherLen
	_ // unused: the three blanks keep the tags below at their values
	_
	_
	tagAlltoall
	tagAllgather
	tagAllreduce
)

// largestPow2 returns the largest power of two <= n (n >= 1).
func largestPow2(n int) int {
	pow := 1
	for pow*2 <= n {
		pow *= 2
	}
	return pow
}

// Barrier blocks until every rank in the communicator has entered it.
// Implemented as a binomial-tree reduce-to-zero followed by a broadcast, so
// its communication cost is O(log P) rounds like a real MPI barrier.
func (c *Comm) Barrier() error {
	// Reduce a token up the tree.
	mask := 1
	for mask < c.size {
		partner := c.rank ^ mask
		if c.rank&mask != 0 {
			tok := getBuf[byte](1)
			sendBuf(c, partner, tagBarrier, tok)
			break
		}
		if partner < c.size {
			tok, err := recvBuf[byte](c, partner, tagBarrier)
			if err != nil {
				return fmt.Errorf("barrier (up, rank %d): %w", c.rank, err)
			}
			putBuf(tok)
		}
		mask <<= 1
	}
	// Broadcast release down the tree.
	rel := getBuf[byte](1)
	defer putBuf(rel)
	return Bcast(c, *rel, 0)
}

// binomialParentChildren computes, for the binomial broadcast tree rooted at
// virtual rank 0, vrank's parent (-1 for the root) and the first child mask:
// the children are vrank+mask for mask doubling while vrank+mask < size.
func binomialParentChildren(vrank int) (parent, childMask int) {
	mask := 1
	for mask <= vrank {
		mask <<= 1
	}
	parent = -1
	if vrank != 0 {
		parent = vrank - mask>>1
	}
	return parent, mask
}

// Bcast broadcasts buf from root to all ranks over a binomial tree. Long
// payloads are cut into segments pipelined down the tree: a rank forwards
// segment k to its children before receiving segment k+1, so the cost is
// O(log P + S) segment times instead of O(log P · S). On non-root ranks buf
// is overwritten; all ranks must pass equal lengths.
func Bcast[T any](c *Comm, buf []T, root int) error {
	if c.size == 1 || len(buf) == 0 {
		return nil
	}
	segElems := len(buf)
	if total := len(buf) * sizeOf[T](); total > bcastSegBytes {
		segElems = bcastSegBytes / sizeOf[T]()
		if segElems < 1 {
			segElems = 1
		}
	}
	vrank := (c.rank - root + c.size) % c.size
	parent, childMask := binomialParentChildren(vrank)
	for off := 0; off < len(buf); off += segElems {
		end := off + segElems
		if end > len(buf) {
			end = len(buf)
		}
		seg := buf[off:end]
		if parent >= 0 {
			data, err := recvBuf[T](c, (parent+root)%c.size, tagBcast)
			if err != nil {
				return fmt.Errorf("bcast (rank %d from %d): %w", c.rank, (parent+root)%c.size, err)
			}
			if len(*data) != len(seg) {
				return fmt.Errorf("bcast: length mismatch on rank %d: have %d want %d", c.rank, len(seg), len(*data))
			}
			copy(seg, *data)
			putBuf(data)
		}
		for mask := childMask; vrank+mask < c.size; mask <<= 1 {
			msg := getBuf[T](len(seg))
			copy(*msg, seg)
			sendBuf(c, (vrank+mask+root)%c.size, tagBcast, msg)
		}
	}
	return nil
}

// Reduce combines send buffers from all ranks element-wise with op, leaving
// the result in recv on root. recv may be nil on non-root ranks. send and
// recv must not alias.
func Reduce[T Number](c *Comm, send []T, recv []T, op Op, root int) error {
	split, err := opSplit("reduce", op, len(send))
	if err != nil {
		return err
	}
	if c.rank == root && len(recv) != len(send) {
		return fmt.Errorf("reduce: root recv length %d != send length %d", len(recv), len(send))
	}
	acc := getBuf[T](len(send))
	copy(*acc, send)
	vrank := (c.rank - root + c.size) % c.size
	for mask := 1; mask < c.size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % c.size
			sendBuf(c, parent, tagReduce, acc)
			return nil
		}
		vchild := vrank | mask
		if vchild < c.size {
			data, err := recvBuf[T](c, (vchild+root)%c.size, tagReduce)
			if err != nil {
				return fmt.Errorf("reduce (rank %d): %w", c.rank, err)
			}
			if len(*data) != len(*acc) {
				return fmt.Errorf("reduce: length mismatch on rank %d: have %d got %d", c.rank, len(*acc), len(*data))
			}
			apply(c, op, *acc, *data, 0, split)
			putBuf(data)
		}
	}
	copy(recv, *acc)
	putBuf(acc)
	return nil
}

// Allreduce combines send buffers element-wise with op and leaves the result
// in recv on every rank. Short vectors use recursive doubling (log P rounds
// of whole-vector exchanges); long vectors use Rabenseifner's algorithm — a
// recursive-halving reduce-scatter followed by a recursive-doubling
// allgather — which cuts the bytes through the bottleneck rank from
// ~2n·log P to ~2n. Results are bit-identical across ranks and across both
// algorithms for integer and min/max reductions; floating-point sums may
// differ from a serial reduction in the last ulp because the combination
// tree is balanced rather than linear, as in any real MPI.
func Allreduce[T Number](c *Comm, send []T, recv []T, op Op) error {
	if len(recv) != len(send) {
		return fmt.Errorf("allreduce: recv length %d != send length %d", len(recv), len(send))
	}
	split, err := opSplit("allreduce", op, len(send))
	if err != nil {
		return err
	}
	if c.size == 1 {
		copy(recv, send)
		return nil
	}
	pow := largestPow2(c.size)
	if len(send)*sizeOf[T]() <= allreduceLongMin || len(send) < 2*pow {
		return allreduceRecDouble(c, send, recv, op, split, pow)
	}
	return allreduceRabenseifner(c, send, recv, op, split, pow)
}

// AllreduceMinMax fuses the global-minimum of lo and global-maximum of hi
// into one collective round, in place: on return lo holds the element-wise
// minima and hi the maxima across all ranks. lo and hi must have the same
// length on every rank. This is the fused path for the "global [min, max]"
// pattern that precedes every histogram, index, compression, and rendering
// step.
func AllreduceMinMax[T Number](c *Comm, lo, hi []T) error {
	if len(lo) != len(hi) {
		return fmt.Errorf("allreduce-minmax: lo length %d != hi length %d", len(lo), len(hi))
	}
	if c.size == 1 {
		return nil
	}
	n := len(lo)
	send := getBuf[T](2 * n)
	recv := getBuf[T](2 * n)
	copy((*send)[:n], lo)
	copy((*send)[n:], hi)
	err := Allreduce(c, *send, *recv, OpMinMax)
	if err == nil {
		copy(lo, (*recv)[:n])
		copy(hi, (*recv)[n:])
	}
	putBuf(send)
	putBuf(recv)
	return err
}

// foldReal maps a power-of-two group rank back to a communicator rank: the
// first 2*rem communicator ranks fold pairwise (the even member retires
// until the unfold), the rest map one-to-one.
func foldReal(grank, rem int) int {
	if grank < rem {
		return grank*2 + 1
	}
	return grank + rem
}

// foldIn performs the pre-step onto the largest embedded power-of-two group:
// even folded ranks send their working vector to their odd partner, which
// reduces it. Returns the caller's group rank, or -1 if it folded out.
func foldIn[T Number](c *Comm, work []T, op Op, split, rem int) (int, error) {
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		msg := getBuf[T](len(work))
		copy(*msg, work)
		sendBuf(c, c.rank+1, tagAllreduce, msg)
		return -1, nil
	case c.rank < 2*rem:
		data, err := recvBuf[T](c, c.rank-1, tagAllreduce)
		if err != nil {
			return 0, fmt.Errorf("allreduce fold (rank %d): %w", c.rank, err)
		}
		if len(*data) != len(work) {
			return 0, fmt.Errorf("allreduce fold: length mismatch on rank %d: have %d got %d", c.rank, len(work), len(*data))
		}
		apply(c, op, work, *data, 0, split)
		putBuf(data)
		return c.rank / 2, nil
	default:
		return c.rank - rem, nil
	}
}

// foldOut performs the post-step: odd partners ship the finished vector back
// to the even ranks that folded out.
func foldOut[T Number](c *Comm, work []T, rem int) error {
	if c.rank >= 2*rem {
		return nil
	}
	if c.rank%2 == 0 {
		data, err := recvBuf[T](c, c.rank+1, tagAllreduce)
		if err != nil {
			return fmt.Errorf("allreduce unfold (rank %d): %w", c.rank, err)
		}
		copy(work, *data)
		putBuf(data)
		return nil
	}
	msg := getBuf[T](len(work))
	copy(*msg, work)
	sendBuf(c, c.rank-1, tagAllreduce, msg)
	return nil
}

// allreduceRecDouble is the short-vector algorithm: after folding to a
// power-of-two group, log P rounds in which partners exchange whole vectors
// and reduce. Latency-optimal; every rank moves n·log P bytes.
func allreduceRecDouble[T Number](c *Comm, send, recv []T, op Op, split, pow int) error {
	copy(recv, send)
	rem := c.size - pow
	grank, err := foldIn(c, recv, op, split, rem)
	if err != nil {
		return err
	}
	if grank >= 0 {
		for mask := 1; mask < pow; mask <<= 1 {
			partner := foldReal(grank^mask, rem)
			msg := getBuf[T](len(recv))
			copy(*msg, recv)
			data, err := sendRecvBuf(c, partner, tagAllreduce, msg)
			if err != nil {
				return fmt.Errorf("allreduce (rank %d <-> %d): %w", c.rank, partner, err)
			}
			if len(*data) != len(recv) {
				return fmt.Errorf("allreduce: length mismatch on rank %d: have %d got %d", c.rank, len(recv), len(*data))
			}
			apply(c, op, recv, *data, 0, split)
			putBuf(data)
		}
	}
	return foldOut(c, recv, rem)
}

// allreduceRabenseifner is the long-vector algorithm: a recursive-halving
// reduce-scatter leaves each group rank with a fully reduced 1/P window,
// then the exchanges replay in reverse as a recursive-doubling allgather.
// Every group rank sends and receives ~2n(P-1)/P bytes — the bandwidth
// optimum — versus the 2n·log P that the root of a reduce+bcast moves.
func allreduceRabenseifner[T Number](c *Comm, send, recv []T, op Op, split, pow int) error {
	copy(recv, send)
	rem := c.size - pow
	grank, err := foldIn(c, recv, op, split, rem)
	if err != nil {
		return err
	}
	if grank >= 0 {
		n := len(recv)
		lo, hi := 0, n
		type window struct{ lo, hi int }
		var wins [64]window
		rounds := 0
		// Reduce-scatter by recursive halving: each round trades away half
		// of the current window and reduces the kept half.
		for mask := 1; mask < pow; mask <<= 1 {
			partner := foldReal(grank^mask, rem)
			mid := lo + (hi-lo)/2
			var sendLo, sendHi, keepLo, keepHi int
			if grank&mask == 0 {
				sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
			} else {
				sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
			}
			msg := getBuf[T](sendHi - sendLo)
			copy(*msg, recv[sendLo:sendHi])
			data, err := sendRecvBuf(c, partner, tagAllreduce, msg)
			if err != nil {
				return fmt.Errorf("allreduce reduce-scatter (rank %d <-> %d): %w", c.rank, partner, err)
			}
			if len(*data) != keepHi-keepLo {
				return fmt.Errorf("allreduce reduce-scatter: length mismatch on rank %d: have %d got %d", c.rank, keepHi-keepLo, len(*data))
			}
			apply(c, op, recv[keepLo:keepHi], *data, keepLo, split)
			putBuf(data)
			wins[rounds] = window{keepLo, keepHi}
			rounds++
			lo, hi = keepLo, keepHi
		}
		// Allgather by replaying the halvings in reverse: partners exchange
		// their finished windows, doubling the owned range each round.
		for i := rounds - 1; i >= 0; i-- {
			partner := foldReal(grank^(1<<i), rem)
			pLo, pHi := 0, n
			if i > 0 {
				pLo, pHi = wins[i-1].lo, wins[i-1].hi
			}
			msg := getBuf[T](hi - lo)
			copy(*msg, recv[lo:hi])
			data, err := sendRecvBuf(c, partner, tagAllreduce, msg)
			if err != nil {
				return fmt.Errorf("allreduce allgather (rank %d <-> %d): %w", c.rank, partner, err)
			}
			if lo == pLo { // partner holds the upper sibling window
				if len(*data) != pHi-hi {
					return fmt.Errorf("allreduce allgather: length mismatch on rank %d: have %d got %d", c.rank, pHi-hi, len(*data))
				}
				copy(recv[hi:pHi], *data)
			} else {
				if len(*data) != lo-pLo {
					return fmt.Errorf("allreduce allgather: length mismatch on rank %d: have %d got %d", c.rank, lo-pLo, len(*data))
				}
				copy(recv[pLo:lo], *data)
			}
			putBuf(data)
			lo, hi = pLo, pHi
		}
	}
	return foldOut(c, recv, rem)
}

// subtreeSpan returns the number of virtual ranks in vrank's subtree within
// the contiguous-subtree binomial tree (parent = clear lowest set bit): the
// subtree of v is the vrank range [v, v+span).
func subtreeSpan(vrank, size int) int {
	if vrank == 0 {
		return size
	}
	span := vrank & -vrank
	if vrank+span > size {
		span = size - vrank
	}
	return span
}

// Gatherv collects variable-length contributions from every rank onto root
// over a binomial tree, ordered by rank. Non-root ranks receive nil. Each
// tree hop ships a per-rank length header alongside the concatenated
// payload, so the root reassembles exact per-rank slices in log P rounds —
// this replaces the linear per-rank Send/Recv floods call sites used before
// it existed.
func Gatherv[T any](c *Comm, send []T, root int) ([][]T, error) {
	if c.size == 1 {
		cp := make([]T, len(send))
		copy(cp, send)
		return [][]T{cp}, nil
	}
	vrank := (c.rank - root + c.size) % c.size
	span := subtreeSpan(vrank, c.size)
	lens := getBuf[int64](span)
	(*lens)[0] = int64(len(send))
	acc := getBuf[T](len(send))
	copy(*acc, send)
	for mask := 1; mask < c.size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % c.size
			sendBuf(c, parent, tagGatherLen, lens)
			sendBuf(c, parent, tagGather, acc)
			return nil, nil
		}
		vchild := vrank | mask
		if vchild < c.size {
			cspan := subtreeSpan(vchild, c.size)
			src := (vchild + root) % c.size
			clens, err := recvBuf[int64](c, src, tagGatherLen)
			if err != nil {
				return nil, fmt.Errorf("gatherv (rank %d from %d): %w", c.rank, src, err)
			}
			data, err := recvBuf[T](c, src, tagGather)
			if err != nil {
				return nil, fmt.Errorf("gatherv (rank %d from %d): %w", c.rank, src, err)
			}
			var want int64
			for _, l := range *clens {
				want += l
			}
			if len(*clens) != cspan || int64(len(*data)) != want {
				return nil, fmt.Errorf("gatherv: inconsistent header from rank %d (lens %d/%d, data %d/%d)", src, len(*clens), cspan, len(*data), want)
			}
			copy((*lens)[vchild-vrank:], *clens)
			*acc = append(*acc, *data...)
			putBuf(clens)
			putBuf(data)
		}
	}
	// Root: carve caller-owned per-rank slices out of one fresh allocation.
	flat := make([]T, len(*acc))
	copy(flat, *acc)
	putBuf(acc)
	out := make([][]T, c.size)
	off := 0
	for v := 0; v < c.size; v++ {
		l := int((*lens)[v])
		out[(v+root)%c.size] = flat[off : off+l : off+l]
		off += l
	}
	putBuf(lens)
	return out, nil
}

// Allgather collects each rank's contribution (which may vary in length)
// and returns the concatenation, ordered by rank, on every rank. Implemented
// as a ring: in each of P-1 rounds a rank forwards to its right neighbor the
// block it received in the previous round, so every rank moves ~total bytes
// instead of the root-centric gather+rebroadcast this replaces.
func Allgather[T any](c *Comm, send []T) ([]T, error) {
	flat, lens, err := allgatherRing(c, send)
	if err != nil {
		return nil, err
	}
	putBuf(lens)
	return flat, nil
}

func allgatherRing[T any](c *Comm, send []T) ([]T, *[]int64, error) {
	p := c.size
	if p == 1 {
		cp := make([]T, len(send))
		copy(cp, send)
		lens := getBuf[int64](1)
		(*lens)[0] = int64(len(send))
		return cp, lens, nil
	}
	blockPtrs := getBuf[*[]T](p)
	blocks := *blockPtrs
	for i := range blocks {
		blocks[i] = nil
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for r := 0; r < p-1; r++ {
		// Forward a copy of the block received last round (round 0: my own
		// contribution); the original stays for the final assembly.
		out := send
		if r > 0 {
			out = *blocks[(c.rank-r+p)%p]
		}
		msg := getBuf[T](len(out))
		copy(*msg, out)
		sendBuf(c, right, tagAllgather, msg)
		data, err := recvBuf[T](c, left, tagAllgather)
		if err != nil {
			putBuf(blockPtrs)
			return nil, nil, fmt.Errorf("allgather ring (rank %d round %d): %w", c.rank, r, err)
		}
		blocks[(c.rank-r-1+p)%p] = data
	}
	total := len(send)
	lens := getBuf[int64](p)
	for r := range blocks {
		if r == c.rank {
			(*lens)[r] = int64(len(send))
			continue
		}
		(*lens)[r] = int64(len(*blocks[r]))
		total += len(*blocks[r])
	}
	flat := make([]T, total)
	off := 0
	for r := range blocks {
		if r == c.rank {
			off += copy(flat[off:], send)
			continue
		}
		off += copy(flat[off:], *blocks[r])
		putBuf(blocks[r])
	}
	putBuf(blockPtrs)
	return flat, lens, nil
}

// Alltoall exchanges parts[i] with rank i on every rank; the returned slice
// holds, at index i, what rank i sent to the caller. Pairwise exchange in
// P-1 rounds: in round r every rank sends to (rank+r) mod P and receives
// from (rank-r) mod P — the sends of each round form a permutation, so no
// mailbox is ever flooded with more than one message per round.
func Alltoall[T any](c *Comm, parts [][]T) ([][]T, error) {
	p := c.size
	if len(parts) != p {
		return nil, fmt.Errorf("alltoall: need %d parts, got %d", p, len(parts))
	}
	out := make([][]T, p)
	cp := make([]T, len(parts[c.rank]))
	copy(cp, parts[c.rank])
	out[c.rank] = cp
	for r := 1; r < p; r++ {
		to := (c.rank + r) % p
		from := (c.rank - r + p) % p
		msg := getBuf[T](len(parts[to]))
		copy(*msg, parts[to])
		sendBuf(c, to, tagAlltoall, msg)
		data, err := recvBuf[T](c, from, tagAlltoall)
		if err != nil {
			return nil, fmt.Errorf("alltoall (rank %d round %d from %d): %w", c.rank, r, from, err)
		}
		// The result is caller-owned: copy out and recycle the hop buffer.
		part := make([]T, len(*data))
		copy(part, *data)
		putBuf(data)
		out[from] = part
	}
	return out, nil
}
