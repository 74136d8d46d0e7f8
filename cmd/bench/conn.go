package main

import (
	"sync/atomic"
	"time"

	"gosensei/internal/fabric"
)

// connStats totals what crossed a set of wrapped connections. Writes come
// from whichever goroutine owns the connection (a rank, a heartbeat), so
// the counters are atomic.
type connStats struct {
	conns      atomic.Int64 // connections wrapped (dials + accepts seen)
	writes     atomic.Int64
	bytes      atomic.Int64
	writeNs    atomic.Int64
	dataFrames atomic.Int64 // FrameData frames written
}

// connSnap is a point-in-time copy of connStats.
type connSnap struct{ conns, writes, bytes, writeNs, dataFrames int64 }

func (s *connStats) snap() connSnap {
	return connSnap{s.conns.Load(), s.writes.Load(), s.bytes.Load(), s.writeNs.Load(), s.dataFrames.Load()}
}

func (a connSnap) sub(b connSnap) connSnap {
	return connSnap{a.conns - b.conns, a.writes - b.writes, a.bytes - b.bytes, a.writeNs - b.writeNs, a.dataFrames - b.dataFrames}
}

// wrap decorates c — the seam fabric, world and live all offer for
// fault injection, used here to count and time what a layer writes.
func (s *connStats) wrap(c fabric.Conn) fabric.Conn {
	s.conns.Add(1)
	return &countingConn{Conn: c, stats: s}
}

type countingConn struct {
	fabric.Conn
	stats *connStats
}

// frameTypeOffset is where a fabric frame keeps its type byte (the layout
// fabric documents: length u32, type u8, seq u32, crc u32, payload).
const frameTypeOffset = 4

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.stats.writeNs.Add(int64(time.Since(t0)))
	c.stats.writes.Add(1)
	c.stats.bytes.Add(int64(n))
	// Every layer writes one whole frame per Write, so the type byte tells
	// data frames from control traffic without decoding anything.
	if len(p) >= fabric.FrameOverhead && fabric.FrameType(p[frameTypeOffset]) == fabric.FrameData {
		c.stats.dataFrames.Add(1)
	}
	return n, err
}
