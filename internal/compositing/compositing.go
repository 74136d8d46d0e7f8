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

// Composite merges every rank's framebuffer; rank root returns the final
// image, all others return nil. The framebuffer contents are consumed (used
// as scratch).
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

// packPool recycles pack/receive buffers across compositing rounds. Pack
// buffers travel zero-copy via mpi.SendOwned — ownership transfers to the
// receiver, which returns the buffer to this process-wide pool after
// unpackMerge — so at steady state no image-sized allocation happens per
// round in either compositor. Pointers to slices are pooled to avoid boxing
// allocations.
var packPool sync.Pool // *[]float32

func getPack(n int) []float32 {
	if v := packPool.Get(); v != nil {
		buf := *(v.(*[]float32))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float32, n)
}

func putPack(buf []float32) {
	if buf == nil {
		return
	}
	packPool.Put(&buf)
}

// pack flattens a pixel range [lo, hi) into one float32 message:
// [depth..., r, g, b, a as float32...]. A single slice keeps each exchange
// to one message, matching the "image-sized buffers" the paper describes.
// The returned buffer comes from packPool; callers return it with putPack
// once the message has been handed to mpi (which copies on send).
func pack(fb *render.Framebuffer, lo, hi int) []float32 {
	n := hi - lo
	out := getPack(n * 5)
	copy(out[:n], fb.Depth[lo:hi])
	for i := 0; i < n*4; i++ {
		out[n+i] = float32(fb.Color[lo*4+i])
	}
	return out
}

// unpackMerge depth-merges a packed region into fb at [lo, hi).
func unpackMerge(fb *render.Framebuffer, buf []float32, lo, hi int) {
	n := hi - lo
	for i := 0; i < n; i++ {
		if buf[i] < fb.Depth[lo+i] {
			fb.Depth[lo+i] = buf[i]
			for c := 0; c < 4; c++ {
				fb.Color[(lo+i)*4+c] = uint8(buf[n+i*4+c])
			}
		}
	}
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
		msg := pack(fb, 0, total)
		mpi.SendOwned(c, rank-pow, tagSwap, msg)
	} else if rank+pow < p {
		buf, _, err := mpi.Recv[float32](c, rank+pow, tagSwap)
		if err != nil {
			return nil, fmt.Errorf("compositing: fold: %w", err)
		}
		unpackMerge(fb, buf, 0, total)
		putPack(buf)
	}
	var final *render.Framebuffer
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
			msg := pack(fb, sendLo, sendHi)
			buf, err := mpi.SendRecvOwned(c, partner, tagSwap, msg, partner, tagSwap)
			if err != nil {
				return nil, fmt.Errorf("compositing: swap stage %d: %w", stage, err)
			}
			unpackMerge(fb, buf, keepLo, keepHi)
			putPack(buf)
			lo, hi = keepLo, keepHi
		}
		// Gather the stripes to root.
		if rank == root%pow {
			final = render.AcquireFramebuffer(fb.W, fb.H)
			final.CompositeRegion(fb, lo, hi)
			for other := 0; other < pow; other++ {
				if other == rank {
					continue
				}
				buf, _, err := mpi.Recv[float32](c, other, tagGather)
				if err != nil {
					final.Release()
					return nil, fmt.Errorf("compositing: gather: %w", err)
				}
				oLo, oHi := stripeOf(other, pow, total)
				unpackMerge(final, buf, oLo, oHi)
				putPack(buf)
			}
		} else {
			msg := pack(fb, lo, hi)
			mpi.SendOwned(c, root%pow, tagGather, msg)
		}
	}
	// Ship the result to the true root if it was folded away.
	if root%pow != root {
		if rank == root%pow {
			msg := pack(final, 0, total)
			mpi.SendOwned(c, root, tagGather, msg)
			final.Release()
			final = nil
		} else if rank == root {
			buf, _, err := mpi.Recv[float32](c, root%pow, tagGather)
			if err != nil {
				return nil, err
			}
			final = render.AcquireFramebuffer(fb.W, fb.H)
			unpackMerge(final, buf, 0, total)
			putPack(buf)
		}
	}
	if rank == root && final == nil {
		// p == 1: the local buffer is already final.
		final = fb
	}
	if rank != root {
		return nil, nil
	}
	return final, nil
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
			msg := pack(fb, 0, total)
			mpi.SendOwned(c, parent, tagTree, msg)
			return nil, nil
		}
		vchild := vrank | mask
		if vchild < p {
			buf, _, err := mpi.Recv[float32](c, (vchild+root)%p, tagTree)
			if err != nil {
				return nil, fmt.Errorf("compositing: tree: %w", err)
			}
			unpackMerge(fb, buf, 0, total)
			putPack(buf)
		}
		mask <<= 1
	}
	if c.Rank() == root {
		return fb, nil
	}
	return nil, nil
}

// Stages returns the number of communication rounds each algorithm performs
// at the given rank count; the performance model uses this.
func Stages(alg Algorithm, p int) int {
	if p <= 1 {
		return 0
	}
	l := int(math.Ceil(math.Log2(float64(p))))
	switch alg {
	case BinarySwap:
		return l + 1 // swap rounds plus the stripe gather
	case DirectSend:
		return l
	}
	return l
}
