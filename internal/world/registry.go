package world

import (
	"encoding/binary"
	"fmt"

	"gosensei/internal/fabric"
)

// Registry is the rendezvous point a launcher hosts: it accepts exactly one
// registration per rank of a world, confirms each placement with a Welcome,
// and — once the world is complete — broadcasts the rank -> listener-address
// table so the ranks can mesh directly. The registry then has no further
// role; it closes every registration connection and can be discarded.
type Registry struct {
	ls    fabric.Listener
	id    uint64
	epoch uint32
	size  int
}

// NewRegistry listens for registrations on network/addr (use "127.0.0.1:0"
// for an ephemeral TCP port).
func NewRegistry(network, addr string, id uint64, epoch uint32, size int) (*Registry, error) {
	if size <= 0 {
		return nil, fmt.Errorf("world: registry needs a positive size, got %d", size)
	}
	ls, err := fabric.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("world: registry listen: %w", err)
	}
	return &Registry{ls: ls, id: id, epoch: epoch, size: size}, nil
}

// Addr returns the registry's listener address — what workers pass as
// Config.Registry.
func (r *Registry) Addr() string { return r.ls.Addr().String() }

// Close releases the listener. Serve closes it on return; Close exists for
// callers that abandon a registry without serving it.
func (r *Registry) Close() error { return r.ls.Close() }

// Serve accepts registrations until every rank is present, broadcasts the
// address book, and returns the rank-indexed listener addresses. A
// registration from the wrong world, wrong epoch, out-of-range rank, or an
// already-claimed rank is refused (connection closed) without failing the
// world — that is the straggler-from-a-previous-launch case the epoch field
// exists for. Serve blocks until the world assembles or the listener is
// closed; bound it by closing the listener from a watchdog if needed.
func (r *Registry) Serve() ([]string, error) {
	defer func() { _ = r.ls.Close() }() // single-use rendezvous
	if r.size == 1 {
		return []string{""}, nil // a world of one has no wire, and Join never registers
	}

	addrs := make([]string, r.size)
	sessions := make([]*fabric.Session, r.size)
	defer func() {
		for _, s := range sessions {
			if s != nil {
				_ = s.Close() // best-effort teardown of a completed rendezvous
			}
		}
	}()

	for have := 0; have < r.size; {
		conn, err := r.ls.Accept()
		if err != nil {
			return nil, fmt.Errorf("world: registry accept: %w", err)
		}
		sess, h, err := fabric.AcceptHello(conn, nil)
		if err != nil {
			continue // a garbage or version-incompatible dialer is not fatal
		}
		rank := int(h.Rank)
		if h.Role != fabric.RoleRank || h.WorldID != r.id || h.WorldEpoch != r.epoch ||
			h.WorldSize != uint32(r.size) || rank >= r.size ||
			sessions[rank] != nil || h.PeerAddr == "" {
			_ = sess.Close()
			continue
		}
		// Welcome immediately — the dialer's handshake deadline must not wait
		// for the rest of the world to arrive.
		if sess.SendWelcome(fabric.Welcome{WorldID: r.id, WorldEpoch: r.epoch, PeerRank: uint32(rank)}) != nil {
			continue
		}
		addrs[rank] = h.PeerAddr
		sessions[rank] = sess
		have++
	}

	book := appendWorldInfo(nil, r.id, r.epoch, addrs)
	for rank, s := range sessions {
		if err := s.Send(fabric.FrameWorldInfo, 0, book); err != nil {
			return nil, fmt.Errorf("world: registry address book to rank %d: %w", rank, err)
		}
	}
	return addrs, nil
}

// World-info payload layout (little-endian):
//
//	world id u64 | epoch u32 | count u32 | count * (addr len u16 | addr bytes)

// appendWorldInfo encodes the FrameWorldInfo payload.
func appendWorldInfo(dst []byte, id uint64, epoch uint32, addrs []string) []byte {
	var hdr [16]byte
	le := binary.LittleEndian
	le.PutUint64(hdr[0:8], id)
	le.PutUint32(hdr[8:12], epoch)
	le.PutUint32(hdr[12:16], uint32(len(addrs)))
	dst = append(dst, hdr[:]...)
	for _, a := range addrs {
		var l [2]byte
		le.PutUint16(l[:], uint16(len(a)))
		dst = append(dst, l[:]...)
		dst = append(dst, a...)
	}
	return dst
}

// decodeWorldInfo reverses appendWorldInfo.
func decodeWorldInfo(p []byte) (id uint64, epoch uint32, addrs []string, err error) {
	le := binary.LittleEndian
	if len(p) < 16 {
		return 0, 0, nil, fmt.Errorf("world: world-info payload too short (%d bytes)", len(p))
	}
	id = le.Uint64(p[0:8])
	epoch = le.Uint32(p[8:12])
	n := int(le.Uint32(p[12:16]))
	p = p[16:]
	// Every entry costs at least its 2-byte length, so a count the payload
	// cannot hold is refused before it sizes an allocation.
	if n > len(p)/2 {
		return 0, 0, nil, fmt.Errorf("world: world-info claims %d entries in %d bytes", n, len(p))
	}
	addrs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return 0, 0, nil, fmt.Errorf("world: world-info truncated at entry %d", i)
		}
		l := int(le.Uint16(p[0:2]))
		if len(p) < 2+l {
			return 0, 0, nil, fmt.Errorf("world: world-info entry %d claims %d bytes, %d remain", i, l, len(p)-2)
		}
		addrs = append(addrs, string(p[2:2+l]))
		p = p[2+l:]
	}
	if len(p) != 0 {
		return 0, 0, nil, fmt.Errorf("world: world-info has %d trailing bytes", len(p))
	}
	return id, epoch, addrs, nil
}
