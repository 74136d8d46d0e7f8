package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// goldenPayloads reads testdata/handshake.golden into label -> bytes.
func goldenPayloads(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/handshake.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, hexStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q has no separator", line)
		}
		b, err := hex.DecodeString(hexStr)
		if err != nil {
			t.Fatalf("golden line %q: %v", label, err)
		}
		out[label] = b
	}
	return out
}

// TestHandshakeGolden pins the wire bytes of the handshake: the encoders
// must reproduce the fixtures exactly and the decoders must recover the
// encoded fields. A mismatch is a silent wire-format break.
func TestHandshakeGolden(t *testing.T) {
	golden := goldenPayloads(t)

	hello := Hello{
		Version: ProtocolVersion, Role: RoleRank, Rank: 2, Codecs: 1,
		WorldID: 77001, WorldEpoch: 2, WorldSize: 4, PeerAddr: "127.0.0.1:4001",
	}
	if got := appendHello(nil, hello); !bytes.Equal(got, golden["hello"]) {
		t.Errorf("hello encoding drifted:\n got %x\nwant %x", got, golden["hello"])
	}
	if got, err := decodeHello(golden["hello"]); err != nil {
		t.Errorf("hello: %v", err)
	} else if got != hello {
		t.Errorf("hello decoded %+v, want %+v", got, hello)
	}

	welcome := Welcome{Version: ProtocolVersion, WorldID: 77001, WorldEpoch: 2, PeerRank: 2}
	if got := appendWelcome(nil, welcome); !bytes.Equal(got, golden["welcome"]) {
		t.Errorf("welcome encoding drifted:\n got %x\nwant %x", got, golden["welcome"])
	}
	if got, err := decodeWelcome(golden["welcome"]); err != nil {
		t.Errorf("welcome: %v", err)
	} else if got != welcome {
		t.Errorf("welcome decoded %+v, want %+v", got, welcome)
	}

	// The staging half of a Welcome, which the world fixture leaves zero.
	full := Welcome{Version: ProtocolVersion, Credits: 1, Released: 2, Codec: CodecDelta,
		Extract: ExtractSpec{Kind: ExtractSlice, Assoc: 1, Axis: 2, Coord: 0.5, Array: "velocity"}}
	if got, err := decodeWelcome(appendWelcome(nil, full)); err != nil || got != full {
		t.Errorf("welcome round trip: %+v (%v), want %+v", got, err, full)
	}
}

// oldHello hand-rolls what a version-1 (21 bytes) or version-2 (29 bytes)
// peer put on the wire; the same layouts stay checked in as fuzz seeds.
func oldHello(version uint32) []byte {
	b := make([]byte, 29)
	le := binary.LittleEndian
	le.PutUint32(b[0:4], version)
	b[4] = byte(RoleWriter)
	le.PutUint32(b[9:13], 1)  // writers
	le.PutUint32(b[13:17], 1) // readers
	le.PutUint32(b[17:21], 2) // depth
	le.PutUint32(b[21:25], 1) // codecs: raw
	if version == 1 {
		return b[:21]
	}
	return b
}

// TestHandshakeVersionMismatch: every peer is built from this module, so a
// Hello of any other version — the retired v1 and v2 shapes, v3 whose delta
// frames this build could not decode, or a future one — is refused by name
// and the connection is closed well inside the handshake deadline, not
// answered down.
func TestHandshakeVersionMismatch(t *testing.T) {
	for _, tc := range []struct {
		version uint32
		hello   []byte
	}{
		{1, oldHello(1)},
		{2, oldHello(2)},
		{3, appendHello(nil, Hello{Version: 3, Role: RoleWriter, Writers: 1, Readers: 1, Depth: 2})},
		{5, appendHello(nil, Hello{Version: 5, Role: RoleWriter, Writers: 1, Readers: 1, Depth: 2})},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			lis, err := Listen("loopback", t.Name())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = lis.Close() }()
			acceptErr := make(chan error, 1)
			go func() {
				conn, err := lis.Accept()
				if err == nil {
					_, _, err = AcceptHello(conn, nil)
				}
				acceptErr <- err
			}()

			conn, err := Dial("loopback", t.Name())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			if err := conn.SetDeadline(time.Now().Add(handshakeTimeout / 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(AppendFrame(nil, FrameHello, 0, tc.hello)); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("protocol version mismatch: peer %d, ours %d", tc.version, ProtocolVersion)
			if err := <-acceptErr; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("acceptor error %v, want %q", err, want)
			}
			// No Welcome of any shape: the acceptor hung up.
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after refusal: %v, want EOF from a closed conn", err)
			}
		})
	}
}

// TestHandshakeWorldFieldsRoundTrip drives a full exchange through
// DialHello/AcceptHello/SendWelcome and checks the world membership arrives
// intact in both directions.
func TestHandshakeWorldFieldsRoundTrip(t *testing.T) {
	lis, err := Listen("loopback", t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lis.Close() }()

	type acceptResult struct {
		h   Hello
		err error
	}
	got := make(chan acceptResult, 1)
	// The dialer clears its handshake deadline after reading the Welcome; on
	// a pipe that fails once the far end is closed, so the acceptor keeps its
	// end open until DialHello has returned.
	dialed := make(chan struct{})
	defer close(dialed)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			got <- acceptResult{err: err}
			return
		}
		defer func() {
			<-dialed
			_ = conn.Close()
		}()
		sess, h, err := AcceptHello(conn, nil)
		if err != nil {
			got <- acceptResult{err: err}
			return
		}
		err = sess.SendWelcome(Welcome{WorldID: h.WorldID, WorldEpoch: h.WorldEpoch, PeerRank: h.Rank})
		got <- acceptResult{h: h, err: err}
	}()

	conn, err := Dial("loopback", t.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_, w, err := DialHello(conn, Hello{
		Role: RoleRank, Rank: 3, WorldID: 555, WorldEpoch: 6, WorldSize: 8,
		PeerAddr: "world-555-e6-rank-3",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.h.Role != RoleRank || res.h.Rank != 3 || res.h.WorldID != 555 ||
		res.h.WorldEpoch != 6 || res.h.WorldSize != 8 || res.h.PeerAddr != "world-555-e6-rank-3" {
		t.Errorf("hello arrived mangled: %+v", res.h)
	}
	if w.Version != ProtocolVersion || w.WorldID != 555 || w.WorldEpoch != 6 || w.PeerRank != 3 {
		t.Errorf("welcome arrived mangled: %+v", w)
	}
}
