package remotestore

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"eccheck/internal/transport"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative rate: want error")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := New(1000) // 1000 B/s
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("model-states")
	span, err := s.Put(context.Background(), 0, "ckpt/42", data)
	if err != nil {
		t.Fatal(err)
	}
	wantDur := time.Duration(float64(len(data)) / 1000 * float64(time.Second))
	if span.Len() != wantDur {
		t.Errorf("put span %v, want %v", span.Len(), wantDur)
	}
	got, gspan, err := s.Get(context.Background(), span.End, "ckpt/42")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
	if gspan.Start < span.End {
		t.Errorf("get started at %v before put finished at %v", gspan.Start, span.End)
	}
	if _, _, err := s.Get(context.Background(), 0, "missing"); err == nil {
		t.Error("missing object: want error")
	}
}

func TestUplinkSerializesTransfers(t *testing.T) {
	s, err := New(100) // 100 B/s
	if err != nil {
		t.Fatal(err)
	}
	// Two 100-byte puts both ready at t=0: the shared uplink serializes
	// them — this is exactly why remote-storage checkpointing does not
	// scale with GPU count (Fig. 14).
	s1, err := s.Put(context.Background(), 0, "a", make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s.Put(context.Background(), 0, "b", make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if s1.End != time.Second {
		t.Errorf("first put ends at %v", s1.End)
	}
	if s2.Start != time.Second || s2.End != 2*time.Second {
		t.Errorf("second put = %+v, want serialized after the first", s2)
	}
}

func TestObjectsPersistAndAccounting(t *testing.T) {
	s, err := New(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(context.Background(), 0, "x", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(context.Background(), 0, "y", make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	if !s.Has("x") || s.Has("z") {
		t.Error("Has wrong")
	}
	if got := s.TotalBytes(); got != 30 {
		t.Errorf("TotalBytes = %d", got)
	}
	s.Delete("x")
	if s.Has("x") {
		t.Error("Delete failed")
	}
	s.Delete("x") // idempotent
	if got := s.TotalBytes(); got != 20 {
		t.Errorf("TotalBytes after Delete = %d, want 20", got)
	}
}

func TestPutCopiesData(t *testing.T) {
	s, err := New(1e9)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3}
	if _, err := s.Put(context.Background(), 0, "k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 9
	got, _, err := s.Get(context.Background(), 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("store aliased caller data")
	}
	got[1] = 9
	got2, _, err := s.Get(context.Background(), 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got2[1] != 2 {
		t.Error("get aliased stored data")
	}
}

// TestStallHonorsOpTimeout models a hung remote tier: operations against a
// stalled store must come back as bounded deadline errors when the context
// carries a transport.WithOpTimeout bound, and respect plain cancellation.
func TestStallHonorsOpTimeout(t *testing.T) {
	s, err := New(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(context.Background(), 0, "k", []byte("x")); err != nil {
		t.Fatal(err)
	}

	s.SetStall(30 * time.Second)
	ctx := transport.WithOpTimeout(context.Background(), 50*time.Millisecond)
	start := time.Now()
	if _, _, err := s.Get(ctx, 0, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled get: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled get took %v despite a 50ms op bound", elapsed)
	}
	if _, err := s.Put(ctx, 0, "k2", []byte("y")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled put: err = %v, want DeadlineExceeded", err)
	}

	// Plain cancellation interrupts the stall too: cancel once the stalled
	// Get has asked for its context's Done channel, the one it parks on.
	cctx, cancel := context.WithCancel(context.Background())
	parked := &doneWatch{Context: cctx, asked: make(chan struct{})}
	go func() {
		<-parked.asked
		cancel()
	}()
	if _, _, err := s.Get(parked, 0, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled get: err = %v, want Canceled", err)
	}

	// Clearing the fault restores normal service.
	s.SetStall(0)
	if _, _, err := s.Get(context.Background(), 0, "k"); err != nil {
		t.Fatalf("get after clearing stall: %v", err)
	}
}

// doneWatch is a context that closes asked the first time its Done channel is
// taken: the moment a stalled operation starts waiting on it.
type doneWatch struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *doneWatch) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}
