package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// pipe joins the ranks of a test world by the wire encoding alone: a send
// is AppendEnvelope, DecodeEnvelope and Deliver to the destination's World —
// what internal/world does with a socket in between.
type pipe struct {
	mu      sync.Mutex
	scratch []byte
	worlds  []*World
}

func (p *pipe) Send(env *Envelope) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scratch = AppendEnvelope(p.scratch[:0], env)
	got, err := DecodeEnvelope(p.scratch)
	if err != nil {
		return err
	}
	return p.worlds[env.WDst].Deliver(&got)
}

func (p *pipe) Close() error { return nil }

// runPiped is Run on n single-rank worlds joined by a pipe.
func runPiped(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	p := &pipe{worlds: make([]*World, n)}
	comms := make([]*Comm, n)
	for r := range comms {
		p.worlds[r], comms[r] = NewWorld(r, n, p, WithRecvTimeout(5*time.Second))
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func sameBacking[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestOwnedHopsInProcess: between goroutine ranks SendOwned gives the slice
// away and RecvOwned returns that very slice, its own spare untouched.
func TestOwnedHopsInProcess(t *testing.T) {
	msg, mine := []float32{1, 2, 3}, make([]float32, 3)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if spare := SendOwned(c, 1, 7, msg); spare != nil {
				return fmt.Errorf("in-process SendOwned kept %v", spare)
			}
			return nil
		}
		data, spare, err := RecvOwned(c, 0, 7, mine)
		if err != nil {
			return err
		}
		if !sameBacking(data, msg) || !sameBacking(spare, mine) {
			return fmt.Errorf("data is the sender's slice: %v, spare is the caller's: %v", sameBacking(data, msg), sameBacking(spare, mine))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOwnedHopsOverTheWire: across processes the sender gets its slice back
// once the bytes are out, and the receiver's spare is what the envelope is
// decoded into — unless it is too small, or the message is not what was
// asked for, in which case the spare comes back.
func TestOwnedHopsOverTheWire(t *testing.T) {
	runPiped(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for _, n := range []int{3, 5, 2} {
				msg := make([]float32, n)
				for i := range msg {
					msg[i] = float32(10*n + i)
				}
				if spare := SendOwned(c, 1, 7, msg); !sameBacking(spare, msg) {
					return fmt.Errorf("remote SendOwned did not hand the buffer back")
				}
			}
			// An exchange refills the buffer that went out.
			out := []float32{1, 2}
			got, err := SendRecvOwned(c, 1, 8, out, 1, 8)
			if err != nil {
				return err
			}
			if !sameBacking(got, out) || got[0] != 3 || got[1] != 4 {
				return fmt.Errorf("exchange returned %v, in the outgoing buffer: %v", got, sameBacking(got, out))
			}
			return nil
		}
		mine := make([]float32, 0, 4)
		data, spare, err := RecvOwned(c, 0, 7, mine)
		if err != nil || !sameBacking(data, mine) || spare != nil || len(data) != 3 || data[2] != 32 {
			return fmt.Errorf("fitting spare: data %v (in the spare: %v), spare %v, err %v", data, sameBacking(data, mine), spare, err)
		}
		data, spare, err = RecvOwned(c, 0, 7, mine)
		if err != nil || sameBacking(data, mine) || !sameBacking(spare, mine) || len(data) != 5 || data[4] != 54 {
			return fmt.Errorf("small spare: data %v, spare returned: %v, err %v", data, sameBacking(spare, mine), err)
		}
		wrong := make([]int32, 4)
		if data, spare, err := RecvOwned(c, 0, 7, wrong); err == nil || data != nil || !sameBacking(spare, wrong) {
			return fmt.Errorf("[]float32 received as []int32: data %v, err %v", data, err)
		}
		_, err = SendRecvOwned(c, 0, 8, []float32{3, 4}, 0, 8)
		return err
	})
}

// TestRecvSurvivesPayloadReuse: what Recv returns is the caller's for good,
// although the copy DecodeEnvelope made of the payload is back in the pool
// and serving the next message of that size.
func TestRecvSurvivesPayloadReuse(t *testing.T) {
	const n = 4096
	runPiped(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for round := 0; round < 4; round++ {
				Send(c, 1, 7, bytes.Repeat([]byte{byte(round + 1)}, n))
			}
			return nil
		}
		var got [][]byte
		for round := 0; round < 4; round++ {
			data, _, err := Recv[byte](c, 0, 7)
			if err != nil {
				return err
			}
			got = append(got, data)
		}
		for round, data := range got {
			if !bytes.Equal(data, bytes.Repeat([]byte{byte(round + 1)}, n)) {
				return fmt.Errorf("message %d was overwritten by a later one", round)
			}
		}
		return nil
	})
}

// wireEnvelope is a valid []float32 envelope on the wire, optionally edited.
func wireEnvelope(edit func(p []byte)) []byte {
	vals := []float32{1, 2, 3}
	kind, data := encodePayload(vals)
	p := AppendEnvelope(nil, &Envelope{WSrc: 1, Src: 1, Tag: 5, Kind: kind, Elem: "float32", Count: len(vals), Data: data})
	if edit != nil {
		edit(p)
	}
	return p
}

func putCount(n int64) func(p []byte) {
	return func(p []byte) { binary.LittleEndian.PutUint64(p[40:48], uint64(n)) }
}

// TestDecodeEnvelopeRefusesWhatNoSenderProduces: a frame is a peer's bytes,
// and these are the ones that used to reach make([]T, Count).
func TestDecodeEnvelopeRefusesWhatNoSenderProduces(t *testing.T) {
	if _, err := DecodeEnvelope(wireEnvelope(nil)); err != nil {
		t.Fatalf("valid envelope refused: %v", err)
	}
	for name, p := range map[string][]byte{
		"count 1<<36 and 12 bytes": wireEnvelope(putCount(1 << 36)),
		"count -1":                 wireEnvelope(putCount(-1)),
		"raw, no elements, bytes":  wireEnvelope(putCount(0)),
		"unknown kind":             wireEnvelope(func(p []byte) { p[37] = 7 }),
		"unknown flag":             wireEnvelope(func(p []byte) { p[36] = 0x82 }),
		"truncated element name":   wireEnvelope(nil)[:envelopeHeaderLen+3],
		"truncated header":         wireEnvelope(nil)[:envelopeHeaderLen-1],
	} {
		if e, err := DecodeEnvelope(p); err == nil {
			t.Errorf("%s: accepted as %+v", name, e)
		}
	}
}

type nowhere struct{}

func (nowhere) Send(*Envelope) error { return nil }
func (nowhere) Close() error         { return nil }

// TestHostileCountsAreErrors: whatever reaches a mailbox — here past
// DecodeEnvelope, through Deliver — every receive compares the payload with
// count × element size before it sizes anything by the count: an error and
// next to no memory, where a 48-byte envelope used to be a fatal
// out-of-memory throw no recover can catch.
func TestHostileCountsAreErrors(t *testing.T) {
	receives := map[string]func(c *Comm) error{
		"Recv": func(c *Comm) error { _, _, err := Recv[float32](c, 1, 5); return err },
		"RecvOwned": func(c *Comm) error {
			_, _, err := RecvOwned[float32](c, 1, 5, nil)
			return err
		},
		"collective receive": func(c *Comm) error {
			ptr, err := recvBuf[float32](c, 1, 5)
			if err == nil {
				putBuf(ptr)
			}
			return err
		},
	}
	for name, env := range map[string]Envelope{
		"count 1<<36, no data": {Kind: payloadRaw, Elem: "float32", Count: 1 << 36},
		"count -1":             {Kind: payloadRaw, Elem: "float32", Count: -1},
		"count 3 in 8 bytes":   {Kind: payloadRaw, Elem: "float32", Count: 3, Data: make([]byte, 8)},
		"count 1 in 8 bytes":   {Kind: payloadRaw, Elem: "float32", Count: 1, Data: make([]byte, 8)},
		"gob, count 1<<36":     {Kind: payloadGob, Elem: "float32", Count: 1 << 36, Data: make([]byte, 8)},
		"unknown kind":         {Kind: 9, Elem: "float32", Count: 2, Data: make([]byte, 8)},
		"another element type": {Kind: payloadRaw, Elem: "float64", Count: 1, Data: make([]byte, 8)},
	} {
		for how, receive := range receives {
			w, c := NewWorld(0, 2, nowhere{}, WithRecvTimeout(time.Second))
			env := env
			env.WSrc, env.Src, env.Tag = 1, 1, 5
			if err := w.Deliver(&env); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := receive(c)
			runtime.ReadMemStats(&after)
			if err == nil || strings.Contains(err.Error(), "timeout") {
				t.Errorf("%s, %s: err = %v, want the envelope refused", name, how, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1024 {
				t.Errorf("%s, %s: refusing it allocated %d bytes", name, how, grew)
			}
		}
	}
}

// FuzzEnvelopeDecode: DecodeEnvelope faces a peer's bytes and must never
// panic; what it accepts is exactly what AppendEnvelope writes, and decodes
// — as the type it names or any other — into no more memory than the input
// had. (The allocation bound is held for raw payloads only: a gob decoder
// costs a few KiB before it has read a byte.) The seeds are the corpus under
// testdata/fuzz: a raw and a gob envelope, the two hostile counts, a
// truncated element name.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		e, err := DecodeEnvelope(p)
		if err != nil {
			return
		}
		if again := AppendEnvelope(nil, &e); !bytes.Equal(again, p) {
			t.Fatalf("accepted %x, re-encodes as %x", p, again)
		}
		raw := e.Kind == payloadRaw
		e.release()
		decodeAgain[float32](t, p, raw)
		decodeAgain[byte](t, p, raw)
	})
}

// decodeAgain decodes the accepted envelope p as []T — a mismatch is an
// error, which is fine — and holds what the decode returns to the size of
// the input: the elements to no more bytes than p, and for a raw payload its
// copy to twice p (a pooled copy made afresh) plus 1 KiB. What the decode
// allocates is TestEnvelopeDecodeAllocation's: the fuzz engine's own
// goroutines allocate too, so a process-wide count read here can fail on
// unchanged code.
func decodeAgain[T any](t *testing.T, p []byte, raw bool) {
	e, err := DecodeEnvelope(p)
	if err != nil {
		t.Fatalf("second decode of the same bytes: %v", err)
	}
	if held := cap(e.Data); raw && held > 2*len(p)+1024 {
		t.Fatalf("%d input bytes decoded into a %d-byte payload copy", len(p), held)
	}
	out, _ := decodePayload[T](&e, nil)
	if len(out)*sizeOf[T]() > len(p) {
		t.Fatalf("%d input bytes decoded into %d x %d-byte elements", len(p), len(out), sizeOf[T]())
	}
}

// TestEnvelopeDecodeAllocation replays the committed FuzzEnvelopeDecode
// corpus under the allocation bound: decoding a raw envelope, as float32s
// or as bytes, allocates at most twice its input plus 1 KiB. The count is
// process-wide (MemStats.TotalAlloc), so it is read with collection held
// off, from a test that starts no goroutine, and each decode counts the
// least of three tries: an allocation elsewhere in the process would have
// to land in all three.
func TestEnvelopeDecodeAllocation(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzEnvelopeDecode/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	decodes := map[string]func(p []byte){
		"float32": func(p []byte) { e, _ := DecodeEnvelope(p); _, _ = decodePayload[float32](&e, nil) },
		"byte":    func(p []byte) { e, _ := DecodeEnvelope(p); _, _ = decodePayload[byte](&e, nil) },
	}
	raws := 0
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(doc)), "\n")
		quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		p, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", f, err)
		}
		e, err := DecodeEnvelope([]byte(p))
		if err != nil || e.Kind != payloadRaw {
			continue
		}
		e.release()
		raws++
		for as, decode := range decodes {
			grew := uint64(math.MaxUint64)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				decode([]byte(p))
				runtime.ReadMemStats(&after)
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			if grew > uint64(2*len(p))+1024 {
				t.Errorf("%s: decoding %d input bytes as %s allocated %d", filepath.Base(f), len(p), as, grew)
			}
		}
	}
	if raws == 0 {
		t.Fatal("the corpus holds no raw envelope the decoder accepts")
	}
}

// gone is the transport of a process whose only peer has exited: every
// send fails, as a write to a closed connection does.
type gone struct{}

func (gone) Send(env *Envelope) error { return fmt.Errorf("connection to rank %d closed", env.WDst) }
func (gone) Close() error             { return nil }

// TestSendToDeadPeerPoisons: on rank 0 of a two-process world whose peer has
// exited, a send does not panic; it poisons the mailbox with the cause, so
// the receive after it fails at once with an error naming the dead rank
// instead of waiting out the deadlock timeout.
func TestSendToDeadPeerPoisons(t *testing.T) {
	_, c := NewWorld(0, 2, gone{}, WithRecvTimeout(time.Minute))
	start := time.Now()
	spare := SendOwned(c, 1, 5, []float32{1, 2, 3})
	if len(spare) != 3 {
		t.Errorf("SendOwned gave back %d elements, want the 3 it was given", len(spare))
	}
	_, _, err := RecvOwned[float32](c, 1, 5, nil)
	if err == nil || !strings.Contains(err.Error(), "world rank 1") {
		t.Fatalf("RecvOwned after a failed send: err = %v, want one naming world rank 1", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("the receive took %v: the mailbox was not poisoned", elapsed)
	}
}
