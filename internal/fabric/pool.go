package fabric

import "sync"

// BufPool recycles payload-scale scratch buffers across connection epochs.
// Get hands out a zero-length slice with at least the requested capacity;
// Put returns a buffer to the pool. A buffer handed to Put belongs to the
// pool again — retaining or reading it afterwards races with the next Get
// (gosenseilint's ownership rule enforces this, the same contract as
// mpi.SendOwned buffers).
type BufPool struct {
	p sync.Pool // *[]byte holding a buffer
	h sync.Pool // *[]byte holding nil: the boxes Get emptied, for Put to refill
}

// Get returns an empty slice with capacity >= capacity, reusing a pooled
// buffer when one is large enough.
func (p *BufPool) Get(capacity int) []byte {
	if v := p.p.Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		p.h.Put(box)
		if cap(b) >= capacity {
			return b[:0]
		}
	}
	return make([]byte, 0, capacity)
}

// Put returns b's backing storage to the pool. The caller must not touch b
// afterwards.
func (p *BufPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	box, _ := p.h.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	p.p.Put(box)
}

// payloadBufs is the shared pool behind every step-sized buffer of the
// staging path: a connection epoch's encoder and decoder borrow their
// reference and plane buffers here and return them when the connection dies,
// a Client its copy of each pending step until the release, a Hub the copy
// each Delivery carries until its Release — so steady-state staging
// allocates nothing per step and reconnects recycle instead of growing fresh
// multi-MB buffers.
var payloadBufs BufPool
