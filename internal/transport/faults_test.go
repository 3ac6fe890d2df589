package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"eccheck/internal/bufpool"
	"eccheck/internal/obs"
)

// TestTCPDialRetryOutOfOrderStartup is the startup-race regression test: a
// sender whose peer's listener does not exist yet must retry the dial with
// backoff and deliver once the peer comes up, because in a real recovery a
// replacement machine joins while the survivors are already sending.
func TestTCPDialRetryOutOfOrderStartup(t *testing.T) {
	// Reserve a port for the late peer by listening and closing again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := ln.Addr().String()
	_ = ln.Close()

	early, err := NewTCPEndpoint(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = early.Close() }()
	early.SetPeers([]string{early.Addr(), lateAddr})
	reg := obs.NewRegistry()
	early.SetMetrics(reg)
	retries := reg.Counter("transport_dial_retries_total", obs.L("node", "0"))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Send before the peer's listener exists: the dial must retry, not fail.
	sent := make(chan error, 1)
	go func() {
		sent <- early.Send(ctx, 1, "boot", []byte("hello-late-peer"))
	}()

	// The peer comes up only once a dial was refused and is being retried.
	waitUntil(t, "a dial retry", func() bool { return retries.Value() >= 1 })
	late, err := NewTCPEndpoint(1, lateAddr)
	if err != nil {
		t.Fatalf("late listener on reserved port: %v", err)
	}
	defer func() { _ = late.Close() }()
	late.SetPeers([]string{early.Addr(), lateAddr})

	if err := <-sent; err != nil {
		t.Fatalf("send during peer startup window: %v", err)
	}
	got, err := late.Recv(ctx, 0, "boot")
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(got) != "hello-late-peer" {
		t.Fatalf("got %q", got)
	}
}

// TestTCPDialRetryGivesUp asserts a peer that never comes up yields a
// bounded error (the retry budget), not a hang.
func TestTCPDialRetryGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	_ = ln.Close()

	ep, err := NewTCPEndpoint(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	ep.SetPeers([]string{ep.Addr(), deadAddr})

	// A context shorter than the retry budget bounds the wait.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = ep.Send(ctx, 1, "t", []byte("x"))
	if err == nil {
		t.Fatal("send to a dead peer should eventually fail")
	}
	if elapsed := time.Since(start); elapsed > dialRetryFor+2*time.Second {
		t.Fatalf("send took %v, retry budget is %v", elapsed, dialRetryFor)
	}
}

// TestMemorySendAfterCloseErrPeerGone asserts a send racing Close fails
// distinguishably and never creates a fresh mailbox in the frozen map.
func TestMemorySendAfterCloseErrPeerGone(t *testing.T) {
	n, err := NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	mn := n.(*memNetwork)
	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)
	ctx := context.Background()

	if err := ep0.Send(ctx, 1, "pre", []byte("x")); err != nil {
		t.Fatalf("send before close: %v", err)
	}
	mn.mu.Lock()
	before := len(mn.boxes)
	mn.mu.Unlock()

	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	err = ep0.Send(ctx, 1, "post", []byte("y"))
	if !errors.Is(err, ErrPeerGone) {
		t.Fatalf("send after close: want ErrPeerGone, got %v", err)
	}
	if _, err := ep1.Recv(ctx, 0, "post"); !errors.Is(err, ErrPeerGone) {
		t.Fatalf("recv after close: want ErrPeerGone, got %v", err)
	}

	mn.mu.Lock()
	after := len(mn.boxes)
	mn.mu.Unlock()
	if after != before {
		t.Fatalf("close must freeze the mailbox map: %d boxes before, %d after", before, after)
	}
}

// TestMemoryCloseUnblocksInFlightSendWithErrPeerGone fills a mailbox with
// owned sends until the sender blocks on backpressure, then closes the
// network under it: the blocked send fails with ErrPeerGone and its payload,
// which was never delivered, goes back to the pool.
func TestMemoryCloseUnblocksInFlightSendWithErrPeerGone(t *testing.T) {
	n, err := NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0, _ := n.Endpoint(0)
	ctx := context.Background()
	reg := obs.NewRegistry()
	bufpool.Default.SetMetrics(reg)
	defer bufpool.Default.SetMetrics(nil)
	puts := reg.Counter("bufpool_puts_total")

	blocked := make(chan error, 1)
	go func() {
		// Mailbox buffer is 256; the 257th send blocks with no receiver.
		for {
			if err := SendOwned(ctx, ep0, 1, "full", bufpool.Get(1)); err != nil {
				blocked <- err
				return
			}
		}
	}()
	box, _ := n.(*memNetwork).box(context.Background(), mailboxKey{from: 0, to: 1, tag: "full"})
	waitUntil(t, "a full mailbox", func() bool { return len(box) == cap(box) && cap(box) == 256 })
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrPeerGone) {
			t.Fatalf("blocked send on close: want ErrPeerGone, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked send never unblocked on close")
	}
	if got := puts.Value(); got != 1 {
		t.Errorf("%d buffers went back to the pool, want 1: the undelivered payload", got)
	}
}

// waitUntil polls cond every millisecond until it holds, failing the test
// after five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
