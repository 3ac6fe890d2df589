package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"eccheck/internal/bufpool"
	"eccheck/internal/obs"
)

// tcpPair returns the two endpoints of a 2-node loopback network.
func tcpPair(t *testing.T) (src, dst *TCPEndpoint) {
	t.Helper()
	n, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	eps := n.(*tcpNetwork).eps
	return eps[0], eps[1]
}

// poolGets counts every Get of the default pool while the test runs.
func poolGets(t testing.TB) func() int64 {
	t.Helper()
	reg := obs.NewRegistry()
	bufpool.Default.SetMetrics(reg)
	t.Cleanup(func() { bufpool.Default.SetMetrics(nil) })
	hits, misses := reg.Counter("bufpool_hits_total"), reg.Counter("bufpool_misses_total")
	return func() int64 { return hits.Value() + misses.Value() }
}

// TestTCPSendAllocatesNoFrame is the allocation gate of the borrow rule on
// the TCP data path: a steady-state 1 MiB Send + Recv + Put allocates no
// frame, tag or net.Buffers — under 1 KiB an operation, where a framing copy
// or a fresh payload is a megabyte — and takes exactly one buffer from the
// pool per frame, the receiver's payload: the sender takes none.
func TestTCPSendAllocatesNoFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random: allocation is not a function of the code under test")
	}
	// A pooled buffer that a collection cycle dropped, or that sits in another
	// P's private slot, is allocated again inside the measured window: no
	// collections and one P, so the count is the code's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src, dst := tcpPair(t)
	gets := poolGets(t)
	ctx := WithOpTimeout(context.Background(), 10*time.Second)
	payload := make([]byte, 1<<20)
	op := func() {
		if err := src.Send(ctx, 1, "sm/0/3", payload); err != nil {
			t.Fatal(err)
		}
		got, err := dst.Recv(ctx, 0, "sm/0/3")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload) {
			t.Fatalf("received %d bytes, sent %d", len(got), len(payload))
		}
		bufpool.Put(got)
	}
	for i := 0; i < 4; i++ { // dial, mailbox, header scratch, pooled payload, op timer
		op()
	}
	const frames = 64
	var before, after runtime.MemStats
	getsBefore := gets()
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / frames; perOp >= 1024 {
		t.Errorf("a 1 MiB send+recv allocates %d bytes (%d objects over %d frames), want < 1 KiB",
			perOp, after.Mallocs-before.Mallocs, frames)
	}
	if got := gets() - getsBefore; got != frames {
		t.Errorf("%d frames took %d buffers from the pool, want one each (the receiver's payload)", frames, got)
	}
}

// TestTCPSendHonorsOpTimeout: a peer that never receives fills its mailbox
// and then the socket buffers, and the send that finds them full must fail
// with DeadlineExceeded after the op timeout instead of blocking forever.
// Every send that succeeded is still delivered in order, the frame the
// deadline cut is not, and the next send redials.
func TestTCPSendHonorsOpTimeout(t *testing.T) {
	src, dst := tcpPair(t)
	const size = 64 << 10
	// Mailbox depth, the frame the reader holds, and far more than loopback
	// socket buffers hold in 64 KiB frames.
	const bound = 256 + 1 + 4096
	ctx := WithOpTimeout(context.Background(), 100*time.Millisecond)
	payload := make([]byte, size)
	sent := 0
	var sendErr error
	for ; sent < bound; sent++ {
		binary.LittleEndian.PutUint32(payload, uint32(sent))
		if sendErr = src.Send(ctx, 1, "stuck", payload); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatalf("%d sends of %d bytes to a peer that never receives all succeeded", bound, size)
	}
	if !errors.Is(sendErr, context.DeadlineExceeded) {
		t.Fatalf("send %d: want DeadlineExceeded, got %v", sent, sendErr)
	}
	if sent <= 256 {
		t.Fatalf("send %d failed before the mailbox was full", sent)
	}

	drain := WithOpTimeout(context.Background(), 10*time.Second)
	for i := 0; i < sent; i++ {
		got, err := dst.Recv(drain, 0, "stuck")
		if err != nil {
			t.Fatalf("draining frame %d of %d: %v", i, sent, err)
		}
		if len(got) != size || binary.LittleEndian.Uint32(got) != uint32(i) {
			t.Fatalf("frame %d arrived with %d bytes, stamped %d", i, len(got), binary.LittleEndian.Uint32(got))
		}
		bufpool.Put(got)
	}
	binary.LittleEndian.PutUint32(payload, uint32(sent))
	if err := src.Send(drain, 1, "stuck", payload); err != nil {
		t.Fatalf("send after the peer drained: %v", err)
	}
	got, err := dst.Recv(drain, 0, "stuck")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame after the redial arrived damaged (stamped %d, want %d)", binary.LittleEndian.Uint32(got), sent)
	}
}

func TestTCPSendRejectsOversizedTag(t *testing.T) {
	src, dst := tcpPair(t)
	ctx := WithOpTimeout(context.Background(), 5*time.Second)
	if err := src.Send(ctx, 1, strings.Repeat("t", maxTagLen+1), []byte("x")); err == nil {
		t.Fatal("a tag the receiver would drop the connection for: want an error from Send")
	}
	longest := strings.Repeat("t", maxTagLen)
	if err := src.Send(ctx, 1, longest, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, err := dst.Recv(ctx, 0, longest); err != nil || string(got) != "x" {
		t.Fatalf("frame under the longest tag: %q, %v", got, err)
	}
}

// frameBytes is a whole frame as Send puts it on the wire.
func frameBytes(from int, tag string, payload []byte) []byte {
	return append(appendFrameHeader(nil, from, tag, len(payload)), payload...)
}

// boxCount is the number of mailboxes the endpoint holds.
func (e *TCPEndpoint) boxCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, byTag := range e.boxes {
		n += len(byTag)
	}
	return n
}

// wantHeader parses a frame header the slow way: the fields of the frame at
// the front of data, and whether the header is complete and one the reader
// must accept from a network of the given size.
func wantHeader(data []byte, peers int) (from int, tag string, payloadLen int, ok bool) {
	if len(data) < 8 {
		return 0, "", 0, false
	}
	f, tl := binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:])
	if int64(f) >= int64(peers) || tl > maxTagLen || len(data) < 8+int(tl)+4 {
		return 0, "", 0, false
	}
	pl := binary.LittleEndian.Uint32(data[8+tl:])
	if pl > maxFrameSize {
		return 0, "", 0, false
	}
	return int(f), string(data[8 : 8+tl]), int(pl), true
}

// FuzzTCPReadFrame feeds the frame reader bytes a broken or hostile peer
// could send, checked against wantHeader. It must not panic; a header it must
// reject is rejected with no mailbox created and no buffer taken; a truncated
// frame delivers nothing; and a whole frame comes back as exactly the fields
// the writer's framing produces those bytes from.
func FuzzTCPReadFrame(f *testing.F) {
	f.Add(frameBytes(0, "sm/0/3", []byte("payload")))
	f.Add(frameBytes(2, "", nil))
	f.Add(frameBytes(3, "rc/1/0/2", make([]byte, 300)))
	f.Add(frameBytes(3, "from-outside", []byte("x")))                  // no such peer
	f.Add(frameBytes(1, "cut", []byte("truncated payload"))[:20])      // truncated payload
	f.Add(appendFrameHeader(nil, 1, strings.Repeat("t", 5000), 0))     // tag over the limit
	f.Add(appendFrameHeader(nil, 1, "huge", maxFrameSize+1))           // payload over the limit
	f.Add(appendFrameHeader(nil, 1, "absent", maxFrameSize))           // a length field with nothing behind it
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})      // corrupt from
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})                  // corrupt tagLen
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 't', 0xff, 0xff, 0xff, 0xff}) // corrupt payloadLen

	const peers = 3
	e := &TCPEndpoint{rank: 0, peers: make([]string, peers), boxes: make(map[int]map[string]chan []byte)}
	hdr := make([]byte, maxTagLen+4)
	gets := poolGets(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		from, tag, payloadLen, ok := wantHeader(data, peers)
		if ok && payloadLen > len(data) && payloadLen > 1<<20 {
			// The frame limit is the reader's allocation bound: it sizes the
			// payload buffer by a length field under it. Not a gigabyte per
			// fuzz input.
			t.Skip()
		}
		boxes, buffers := e.boxCount(), gets()
		r := bytes.NewReader(data)
		box, payload, err := e.readFrame(r, hdr)
		switch {
		case !ok:
			if err == nil {
				t.Fatalf("accepted a frame whose header must be rejected (%d payload bytes)", len(payload))
			}
			if e.boxCount() != boxes || gets() != buffers {
				t.Fatalf("a rejected header created %d mailboxes and took %d buffers: %v", e.boxCount()-boxes, gets()-buffers, err)
			}
		case len(data) < 12+len(tag)+payloadLen:
			if err == nil || box != nil || payload != nil {
				t.Fatalf("a frame cut %d bytes short was delivered (%d payload bytes, error %v)", 12+len(tag)+payloadLen-len(data), len(payload), err)
			}
		default:
			if err != nil {
				t.Fatalf("whole frame (%d, %q, %d bytes) rejected: %v", from, tag, payloadLen, err)
			}
			consumed := data[:len(data)-r.Len()]
			if !bytes.Equal(frameBytes(from, tag, payload), consumed) {
				t.Fatalf("frame (%d, %q, %d bytes) does not re-encode to the %d bytes it was read from", from, tag, len(payload), len(consumed))
			}
			if box != e.box(from, tag) {
				t.Fatalf("frame (%d, %q) was addressed to another stream's mailbox", from, tag)
			}
			bufpool.Put(payload)
		}
	})
}
