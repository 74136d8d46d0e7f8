// Package ownership exercises the use-after-give rule for buffers handed to
// mpi.SendOwned/SendRecvOwned/RecvOwned, framebuffers after Release, and
// codec-pool buffers after fabric's BufPool.Put.
package ownership

import (
	"log"

	"gosensei/internal/fabric"
	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

const tagA = 900

// ReuseAfterSendOwned hands buf to the receiver, then writes into it.
func ReuseAfterSendOwned(c *mpi.Comm, buf []float32) {
	mpi.SendOwned(c, 1, tagA, buf)
	buf[0] = 1 // want ownership
}

// ReadAfterSendRecvOwned reads buf after the exchange consumed it.
func ReadAfterSendRecvOwned(c *mpi.Comm, buf []float32) float32 {
	got, err := mpi.SendRecvOwned(c, 1, tagA, buf, 1, tagA)
	if err != nil {
		return 0
	}
	return got[0] + buf[1] // want ownership
}

// TouchAfterRecvOwned gives buf to the receive as its spare and then reads
// it: a wire message was decoded into it and came back as data, an
// in-process one left it to come back as spare — either way buf itself is no
// longer a name the caller may use.
func TouchAfterRecvOwned(c *mpi.Comm, buf []byte) byte {
	data, spare, err := mpi.RecvOwned(c, 1, tagA, buf)
	if err != nil || len(data) == 0 {
		return 0
	}
	_ = spare
	return data[0] + buf[0] // want ownership
}

// RecvOwnedResultsAreClean mirrors compositing: what RecvOwned returns is
// the caller's, and the spare goes back to the same pool the buffer came
// from.
func RecvOwnedResultsAreClean(c *mpi.Comm, p *fabric.BufPool) byte {
	data, spare, err := mpi.RecvOwned(c, 1, tagA, p.Get(64))
	p.Put(spare)
	if err != nil || len(data) == 0 {
		return 0
	}
	first := data[0]
	p.Put(data)
	return first
}

// UseAfterRelease reads a framebuffer the pool may already have recycled.
func UseAfterRelease(fb *render.Framebuffer) int {
	fb.Release()
	return fb.W // want ownership
}

// LoopWraparound gives at the bottom of an iteration and reads at the top of
// the next; the repeated give is itself a second use.
func LoopWraparound(c *mpi.Comm, buf []float32) {
	for i := 0; i < 2; i++ {
		_ = buf[0]                     // want ownership
		mpi.SendOwned(c, 1, tagA, buf) // want ownership
	}
}

// RebindIsClean: reassignment replaces the given buffer, killing the taint.
func RebindIsClean(c *mpi.Comm, buf []float32) float32 {
	mpi.SendOwned(c, 1, tagA, buf)
	buf = make([]float32, 4)
	return buf[0]
}

// TerminatingBranchIsClean mirrors the adaptors' error paths: the release
// only happens on an execution that never reaches the later use.
func TerminatingBranchIsClean(fb *render.Framebuffer, fail bool) int {
	if fail {
		fb.Release()
		return 0
	}
	return fb.W
}

// SendCopyIsClean: plain Send copies the data; reuse is the contract.
func SendCopyIsClean(c *mpi.Comm, buf []float32) {
	mpi.Send(c, 1, tagA, buf)
	buf[0] = 1
}

// ReacquireIsClean mirrors compositing: release, then rebind from the pool.
func ReacquireIsClean(fb *render.Framebuffer) *render.Framebuffer {
	fb.Release()
	fb = render.AcquireFramebuffer(8, 8)
	return fb
}

// ReadAfterPoolPut reads a buffer the codec pool may already have handed to
// another connection epoch.
func ReadAfterPoolPut(p *fabric.BufPool, buf []byte) byte {
	p.Put(buf)
	return buf[0] // want ownership
}

// WriteAfterPoolPut scribbles over a returned buffer — the race that would
// corrupt another connection's delta reference silently.
func WriteAfterPoolPut(p *fabric.BufPool, buf []byte) {
	p.Put(buf[:4])
	buf[0] = 1 // want ownership
}

// PoolReacquireIsClean mirrors the codec encoders' grow path: return the
// small buffer, then rebind from the pool.
func PoolReacquireIsClean(p *fabric.BufPool, buf []byte) []byte {
	p.Put(buf)
	buf = p.Get(64)
	return buf[:0]
}

// PoolPutTerminatingBranchIsClean mirrors the connection-teardown paths: the
// Put happens only on an execution that never reaches the later use.
func PoolPutTerminatingBranchIsClean(p *fabric.BufPool, buf []byte, dead bool) int {
	if dead {
		p.Put(buf)
		return 0
	}
	return len(buf)
}

// FatalArmReleaseIsClean: log.Fatal never returns, so the release on the
// fatal arm happens only on an execution that never reaches the later use.
func FatalArmReleaseIsClean(fb *render.Framebuffer, err error) int {
	if err != nil {
		fb.Release()
		log.Fatal(err)
	}
	return fb.W
}

// FatalArmSendOwnedIsClean: the same for a buffer given to the receiver on
// the fatal arm.
func FatalArmSendOwnedIsClean(c *mpi.Comm, buf []float32, err error) float32 {
	if err != nil {
		mpi.SendOwned(c, 1, tagA, buf)
		log.Fatal(err)
	}
	return buf[0]
}
