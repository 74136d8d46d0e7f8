package fabric

import "sync"

// BufPool is a free list of payload-scale buffers with one owner: a Client
// (its copy of each pending step until the release, and its sessions'
// encoder reference and planes) or a Hub (the copy each Delivery carries
// until its Release, and its sessions' decoder references). Unlike a
// sync.Pool it keeps its buffers across garbage collections, so a steady
// stream allocates nothing per step however often the collector runs; and
// it is dropped at its owner's Close, so nothing it holds outlives the
// pipeline.
//
// Get hands out a zero-length slice with at least the requested capacity:
// the smallest free buffer that fits. The first time Get has no buffer for a
// capacity larger than any it has seen, it makes fill of them — the owner's
// credit bound — so the pipeline's high-water mark in buffers is reached
// then, not at some later step when the endpoint happens to fall a full
// queue behind. Put returns a buffer to the list. A buffer handed to Put
// belongs to the pool again — retaining or reading it afterwards races with
// the next Get (gosenseilint's ownership rule enforces this, the same
// contract as mpi.SendOwned buffers). A nil BufPool allocates on every Get
// and keeps nothing.
type BufPool struct {
	mu     sync.Mutex
	fill   int      // buffers made at once for a new largest capacity
	free   [][]byte // at most 2*fill
	seen   int      // the largest capacity filled for
	closed bool
}

// newBufPool returns an empty pool that fills fill buffers at a time.
func newBufPool(fill int) *BufPool { return &BufPool{fill: max(fill, 1)} }

// Get returns an empty slice with capacity >= capacity, reusing the
// smallest pooled buffer large enough.
func (p *BufPool) Get(capacity int) []byte {
	if p == nil {
		return make([]byte, 0, capacity)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, b := range p.free {
		if cap(b) >= capacity && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b, last := p.free[best], len(p.free)-1
		p.free[best], p.free[last] = p.free[last], nil
		p.free = p.free[:last]
		return b[:0]
	}
	if !p.closed && capacity > p.seen {
		p.seen = capacity
		for i := 1; i < p.fill; i++ {
			p.keep(make([]byte, 0, capacity))
		}
	}
	return make([]byte, 0, capacity)
}

// Put returns b's backing storage to the pool. The caller must not touch b
// afterwards.
func (p *BufPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.keep(b[:0])
	}
}

// Close drops every pooled buffer; later Puts are dropped too and Gets
// allocate.
func (p *BufPool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed, p.free = true, nil
}

// keep adds b to the free list unless the list is full (a stream whose
// payloads keep growing fills again at every new size). p.mu must be held.
func (p *BufPool) keep(b []byte) {
	if len(p.free) < 2*p.fill {
		p.free = append(p.free, b)
	}
}
