package transport

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"eccheck/internal/bufpool"
)

// networkUnderTest runs a suite against both implementations.
func networkUnderTest(t *testing.T, name string, size int) Network {
	t.Helper()
	switch name {
	case "memory":
		n, err := NewMemory(size)
		if err != nil {
			t.Fatal(err)
		}
		return n
	case "tcp":
		n, err := NewTCPLoopback(size)
		if err != nil {
			t.Fatal(err)
		}
		return n
	default:
		t.Fatalf("unknown network %q", name)
		return nil
	}
}

func forEachNetwork(t *testing.T, size int, fn func(t *testing.T, n Network)) {
	for _, name := range []string{"memory", "tcp"} {
		t.Run(name, func(t *testing.T) {
			n := networkUnderTest(t, name, size)
			defer func() {
				if err := n.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			fn(t, n)
		})
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	forEachNetwork(t, 3, func(t *testing.T, n Network) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		a, err := n.Endpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Endpoint(2)
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("checkpoint-packet")
		if err := a.Send(ctx, 2, "data", payload); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(ctx, 0, "data")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("got %q", got)
		}
	})
}

func TestTagAndPeerIsolation(t *testing.T) {
	forEachNetwork(t, 3, func(t *testing.T, n Network) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e0, _ := n.Endpoint(0)
		e1, _ := n.Endpoint(1)
		e2, _ := n.Endpoint(2)
		// Two senders, two tags, all destined for node 2.
		if err := e0.Send(ctx, 2, "x", []byte("from0-x")); err != nil {
			t.Fatal(err)
		}
		if err := e1.Send(ctx, 2, "x", []byte("from1-x")); err != nil {
			t.Fatal(err)
		}
		if err := e0.Send(ctx, 2, "y", []byte("from0-y")); err != nil {
			t.Fatal(err)
		}
		// Receive in an order unrelated to send order.
		got, err := e2.Recv(ctx, 0, "y")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "from0-y" {
			t.Errorf("tag y: %q", got)
		}
		got, err = e2.Recv(ctx, 1, "x")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "from1-x" {
			t.Errorf("from 1: %q", got)
		}
		got, err = e2.Recv(ctx, 0, "x")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "from0-x" {
			t.Errorf("from 0 tag x: %q", got)
		}
	})
}

func TestFIFOPerStream(t *testing.T) {
	forEachNetwork(t, 2, func(t *testing.T, n Network) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		src, _ := n.Endpoint(0)
		dst, _ := n.Endpoint(1)
		const count = 50
		for i := 0; i < count; i++ {
			if err := src.Send(ctx, 1, "seq", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < count; i++ {
			got, err := dst.Recv(ctx, 0, "seq")
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(i) {
				t.Fatalf("message %d arrived as %d: order violated", i, got[0])
			}
		}
	})
}

func TestSenderBufferReuseSafe(t *testing.T) {
	forEachNetwork(t, 2, func(t *testing.T, n Network) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		src, _ := n.Endpoint(0)
		dst, _ := n.Endpoint(1)
		buf := []byte("original")
		if err := src.Send(ctx, 1, "t", buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "clobber!")
		got, err := dst.Recv(ctx, 0, "t")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "original" {
			t.Errorf("payload aliased sender buffer: %q", got)
		}
	})
}

func TestRecvContextCancel(t *testing.T) {
	forEachNetwork(t, 2, func(t *testing.T, n Network) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		dst, _ := n.Endpoint(1)
		if _, err := dst.Recv(ctx, 0, "never"); err == nil {
			t.Error("recv with no sender: want context error")
		}
	})
}

func TestConcurrentAllToAll(t *testing.T) {
	forEachNetwork(t, 4, func(t *testing.T, n Network) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		const msgs = 20
		var wg sync.WaitGroup
		errc := make(chan error, 32)
		for src := 0; src < 4; src++ {
			ep, err := n.Endpoint(src)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(src int, ep Endpoint) {
				defer wg.Done()
				for dst := 0; dst < 4; dst++ {
					if dst == src {
						continue
					}
					for i := 0; i < msgs; i++ {
						payload := fmt.Sprintf("%d->%d #%d", src, dst, i)
						if err := ep.Send(ctx, dst, "flood", []byte(payload)); err != nil {
							errc <- err
							return
						}
					}
				}
			}(src, ep)
		}
		for dst := 0; dst < 4; dst++ {
			ep, err := n.Endpoint(dst)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(dst int, ep Endpoint) {
				defer wg.Done()
				for src := 0; src < 4; src++ {
					if src == dst {
						continue
					}
					for i := 0; i < msgs; i++ {
						got, err := ep.Recv(ctx, src, "flood")
						if err != nil {
							errc <- err
							return
						}
						want := fmt.Sprintf("%d->%d #%d", src, dst, i)
						if string(got) != want {
							errc <- fmt.Errorf("got %q want %q", got, want)
							return
						}
					}
				}
			}(dst, ep)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
}

func TestEndpointValidation(t *testing.T) {
	n, err := NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	if _, err := n.Endpoint(-1); err == nil {
		t.Error("negative node: want error")
	}
	if _, err := n.Endpoint(2); err == nil {
		t.Error("node out of range: want error")
	}
	ctx := context.Background()
	ep, _ := n.Endpoint(0)
	if err := ep.Send(ctx, 5, "t", nil); err == nil {
		t.Error("send out of range: want error")
	}
	if _, err := ep.Recv(ctx, 5, "t"); err == nil {
		t.Error("recv out of range: want error")
	}
	if _, err := NewMemory(0); err == nil {
		t.Error("size 0: want error")
	}
	if _, err := NewTCPLoopback(0); err == nil {
		t.Error("tcp size 0: want error")
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	ep, err := NewTCPEndpoint(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	if err := ep.Send(context.Background(), 3, "t", []byte("x")); err == nil {
		t.Error("send without peer address: want error")
	}
}

func TestNetworkCloseUnblocksRecv(t *testing.T) {
	n, err := NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := n.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv(context.Background(), 0, "t")
		done <- err
	}()
	// The event this waits for — the Recv goroutine parked in its select — is
	// one nothing outside the runtime can observe. The sleep makes it likely
	// that Close finds the Recv blocked; the test holds either way.
	time.Sleep(10 * time.Millisecond)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("recv on closed network: want error")
		}
	case <-time.After(2 * time.Second):
		t.Error("recv did not unblock on close")
	}
}

// TestMemorySendOwnedTakesNoBuffer is the allocation gate of the hand-over
// on the memory transport: a steady-state 1 MiB SendOwned + Recv passes the
// sender's buffer itself to the receiver, so it takes no buffer from the pool
// and allocates nothing, where a plain Send takes exactly one buffer, its
// copy.
func TestMemorySendOwnedTakesNoBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random: allocation is not a function of the code under test")
	}
	// No collections and one P, as in TestTCPSendAllocatesNoFrame: a pooled
	// buffer a cycle dropped would be allocated again inside the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n, err := NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	src, _ := n.Endpoint(0)
	dst, _ := n.Endpoint(1)
	gets := poolGets(t)
	ctx := WithOpTimeout(context.Background(), 10*time.Second)
	const size, frames = 1 << 20, 64
	payload := bufpool.Get(size)
	// measure runs frames operations after a warm-up (mailbox, op timer) and
	// returns the pool Gets and the bytes allocated per operation.
	measure := func(op func()) (getsPerOp float64, bytesPerOp uint64) {
		for i := 0; i < 4; i++ {
			op()
		}
		var before, after runtime.MemStats
		getsBefore := gets()
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		return float64(gets()-getsBefore) / frames, (after.TotalAlloc - before.TotalAlloc) / frames
	}
	recv := func() []byte {
		got, err := dst.Recv(ctx, 0, "pp/0/1")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size {
			t.Fatalf("received %d bytes, sent %d", len(got), size)
		}
		return got
	}

	// The receiver hands the buffer straight back for the next send.
	g, b := measure(func() {
		if err := SendOwned(ctx, src, 1, "pp/0/1", payload); err != nil {
			t.Fatal(err)
		}
		payload = recv()
	})
	if g != 0 || b != 0 {
		t.Errorf("a 1 MiB SendOwned+Recv takes %.2f pool buffers and allocates %d bytes, want none", g, b)
	}
	g, _ = measure(func() {
		if err := src.Send(ctx, 1, "pp/0/1", payload); err != nil {
			t.Fatal(err)
		}
		bufpool.Put(recv())
	})
	if g != 1 {
		t.Errorf("a 1 MiB Send+Recv takes %.2f pool buffers, want exactly one, its copy", g)
	}
}
