// Package compositing implements parallel image compositing: the stage of
// the in situ rendering pipeline where every rank's partial framebuffer is
// merged into one final image on a root rank.
//
// Two algorithms are provided, matching the paper's observation that
// Catalyst and Libsim "use different compositing algorithms, but both
// perform essentially the same task":
//
//   - BinarySwap: the classic log₂P exchange where partners repeatedly trade
//     halves of their active image region, each rank ending with a fully
//     composited 1/P stripe that a final gather assembles on the root. This
//     is the Catalyst-flavored compositor.
//   - DirectSend: a binomial reduction tree where children ship their whole
//     active image to their parent, which depth-merges it; the root ends
//     with the final image. This is the Libsim-flavored compositor.
//
// Both move image-sized buffers through O(log P) rounds — the communication
// pattern whose cost the paper's per-timestep charts (Fig. 6) expose as the
// dominant analysis term at 45K cores.
//
// That "same task" is also written once here: tail.go holds what every
// image-producing adaptor does around its own draw — agree on range and
// bounds, composite, encode and deliver, release the framebuffers.
package compositing

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

// Algorithm selects a compositor.
type Algorithm int

// Available compositing algorithms.
const (
	BinarySwap Algorithm = iota
	DirectSend
)

func (a Algorithm) String() string {
	if a == BinarySwap {
		return "binary-swap"
	}
	return "direct-send"
}

// Composite merges every rank's framebuffer into root's: rank root gets
// back its own fb holding the final image, all others nil. Every rank's
// framebuffer contents are consumed (used as scratch). No compositor
// acquires a framebuffer of its own.
func Composite(c *mpi.Comm, fb *render.Framebuffer, root int, alg Algorithm) (*render.Framebuffer, error) {
	switch alg {
	case BinarySwap:
		return binarySwap(c, fb, root)
	case DirectSend:
		return directSend(c, fb, root)
	}
	return nil, fmt.Errorf("compositing: unknown algorithm %d", int(alg))
}

const (
	tagSwap   = 101
	tagGather = 102
	tagTree   = 103
)

// bytesPerPixel is one pixel of a region message: its float32 depth and its
// RGBA8 colour, the 8 bytes perfmodel.CompositeTime prices.
const bytesPerPixel = 8

// packPool recycles region buffers across compositing rounds. Who owns one:
// pack draws it and the send gives it away — mpi.SendOwned hands the slice
// itself to an in-process receiver, and hands it back as spare once its
// bytes are on the wire to a remote one; the receiver gets the sender's
// slice in-process, and over the wire has mpi.RecvOwned decode the envelope
// straight into a buffer it drew here; unpack returns whichever it was.
// So at steady state no image-sized allocation happens per round in either
// compositor on either transport. Pointers to slices are pooled to avoid
// boxing allocations.
var packPool sync.Pool // *[]byte

func getPack(n int) []byte {
	if v := packPool.Get(); v != nil {
		buf := *(v.(*[]byte))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

func putPack(buf []byte) {
	if buf == nil {
		return
	}
	packPool.Put(&buf)
}

// pack flattens a pixel range [lo, hi) of n pixels into one region message:
// n depths as their IEEE-754 bits, then the n·4 colour bytes as the
// framebuffer holds them. A single slice keeps each exchange to one message,
// matching the "image-sized buffers" the paper describes. The buffer comes
// from packPool.
func pack(fb *render.Framebuffer, lo, hi int) []byte {
	n := hi - lo
	out := getPack(n * bytesPerPixel)
	for i, d := range fb.Depth[lo:hi] {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(d))
	}
	copy(out[n*4:], fb.Color[lo*4:hi*4])
	return out
}

// The two ways a received region meets the pixels fb already holds.
const (
	merge     = true  // the nearer fragment wins
	overwrite = false // the region lands as merged into a cleared buffer
)

// unpack lays a packed region into fb at [lo, hi) and returns buf to the
// pool. To merge, an incoming fragment replaces the held one only when its
// depth compares strictly less as a float32: on a tie (including -0 against
// +0) the held fragment stays, an incoming +Inf never lands, and a NaN on
// either side never wins, since every comparison with NaN is false. To
// overwrite, each pixel becomes what merging it into a cleared
// framebuffer would give: a depth below +Inf lands with its colour, any
// other (+Inf, NaN) leaves the pixel cleared — transparent black at +Inf.
// A region of any size but the one this rank is about to unpack is the
// peer's mistake: an error, not an index out of range.
func unpack(fb *render.Framebuffer, buf []byte, lo, hi int, merging bool) error {
	defer putPack(buf)
	n := hi - lo
	if len(buf) != n*bytesPerPixel {
		return fmt.Errorf("region of %d bytes, want %d", len(buf), n*bytesPerPixel)
	}
	inf := float32(math.Inf(1))
	depth, color := fb.Depth[lo:hi], fb.Color[lo*4:hi*4]
	bits, rgba := buf[:n*4], buf[n*4:]
	for i := range depth {
		cur := inf
		if merging {
			cur = depth[i]
		}
		if d := math.Float32frombits(binary.LittleEndian.Uint32(bits[i*4:])); d < cur {
			depth[i] = d
			copy(color[i*4:i*4+4], rgba[i*4:i*4+4])
		} else if !merging {
			depth[i] = inf
			clear(color[i*4 : i*4+4])
		}
	}
	return nil
}

// clearUndrawn gives fb's own pixels in [lo, hi) the rule an overwriting
// unpack applies to a peer's: a pixel whose depth is not below +Inf becomes
// cleared.
func clearUndrawn(fb *render.Framebuffer, lo, hi int) {
	inf := float32(math.Inf(1))
	color := fb.Color[lo*4 : hi*4]
	for i, d := range fb.Depth[lo:hi] {
		if !(d < inf) {
			fb.Depth[lo+i] = inf
			clear(color[i*4 : i*4+4])
		}
	}
}

// sendRegion packs [lo, hi) of fb and ships it to dest.
func sendRegion(c *mpi.Comm, dest, tag int, fb *render.Framebuffer, lo, hi int) {
	putPack(mpi.SendOwned(c, dest, tag, pack(fb, lo, hi)))
}

// recvRegion receives the region [lo, hi) from src and unpacks it into fb.
func recvRegion(c *mpi.Comm, src, tag int, fb *render.Framebuffer, lo, hi int, merging bool) error {
	buf, spare, err := mpi.RecvOwned(c, src, tag, getPack((hi-lo)*bytesPerPixel))
	putPack(spare)
	if err != nil {
		return err
	}
	return unpack(fb, buf, lo, hi, merging)
}

// binarySwap composites via recursive halving. Non-power-of-two sizes fold
// the excess ranks into the lower power of two first.
func binarySwap(c *mpi.Comm, fb *render.Framebuffer, root int) (*render.Framebuffer, error) {
	p := c.Size()
	total := fb.Pixels()
	// Largest power of two <= p.
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rank := c.Rank()
	// Fold phase: ranks >= pow send their whole image to rank - pow.
	if rank >= pow {
		sendRegion(c, rank-pow, tagSwap, fb, 0, total)
	} else if rank+pow < p {
		if err := recvRegion(c, rank+pow, tagSwap, fb, 0, total, merge); err != nil {
			return nil, fmt.Errorf("compositing: fold: %w", err)
		}
	}
	if rank < pow {
		lo, hi := 0, total
		for stage := 1; stage < pow; stage *= 2 {
			partner := rank ^ stage
			mid := lo + (hi-lo)/2
			keepLow := rank&stage == 0
			var sendLo, sendHi, keepLo, keepHi int
			if keepLow {
				sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
			} else {
				sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
			}
			buf, err := mpi.SendRecvOwned(c, partner, tagSwap, pack(fb, sendLo, sendHi), partner, tagSwap)
			if err == nil {
				err = unpack(fb, buf, keepLo, keepHi, merge)
			}
			if err != nil {
				return nil, fmt.Errorf("compositing: swap stage %d: %w", stage, err)
			}
			lo, hi = keepLo, keepHi
		}
		// Gather the stripes into root's own buffer. Every stripe, root's
		// own included, ends as it would merged into a cleared buffer, and
		// together they cover every pixel.
		if rank == root%pow {
			clearUndrawn(fb, lo, hi)
			for other := 0; other < pow; other++ {
				if other == rank {
					continue
				}
				oLo, oHi := stripeOf(other, pow, total)
				if err := recvRegion(c, other, tagGather, fb, oLo, oHi, overwrite); err != nil {
					return nil, fmt.Errorf("compositing: gather: %w", err)
				}
			}
		} else {
			sendRegion(c, root%pow, tagGather, fb, lo, hi)
		}
	}
	// Ship the result to the true root if it was folded away.
	if root%pow != root {
		if rank == root%pow {
			sendRegion(c, root, tagGather, fb, 0, total)
		} else if rank == root {
			if err := recvRegion(c, root%pow, tagGather, fb, 0, total, overwrite); err != nil {
				return nil, fmt.Errorf("compositing: folded root: %w", err)
			}
		}
	}
	if rank != root {
		return nil, nil
	}
	return fb, nil
}

// stripeOf reproduces the pixel range rank r owns after the swap phase: the
// range follows the bit-reversal order of the halving decisions.
func stripeOf(r, pow, total int) (int, int) {
	lo, hi := 0, total
	for stage := 1; stage < pow; stage *= 2 {
		mid := lo + (hi-lo)/2
		if r&stage == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// directSend composites along a binomial tree rooted at root: at round k a
// rank whose (virtual) rank has bit k set sends its image to its parent and
// retires; parents merge.
func directSend(c *mpi.Comm, fb *render.Framebuffer, root int) (*render.Framebuffer, error) {
	p := c.Size()
	total := fb.Pixels()
	vrank := (c.Rank() - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % p
			sendRegion(c, parent, tagTree, fb, 0, total)
			return nil, nil
		}
		vchild := vrank | mask
		if vchild < p {
			if err := recvRegion(c, (vchild+root)%p, tagTree, fb, 0, total, merge); err != nil {
				return nil, fmt.Errorf("compositing: tree: %w", err)
			}
		}
		mask <<= 1
	}
	if c.Rank() == root {
		return fb, nil
	}
	return nil, nil
}
