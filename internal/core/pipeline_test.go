package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eccheck/internal/chaos"
)

// awaitAcquireParked yields until a goroutine is parked in acquire's credit
// wait: its stack holds both bufWindow.acquire and sync.Cond.Wait.
func awaitAcquireParked() {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "(*bufWindow).acquire") && strings.Contains(g, "(*Cond).Wait") {
				return
			}
		}
		runtime.Gosched()
	}
}

// TestBufWindowOutOfOrderCommits checks the commit ledger against
// out-of-order deliveries: a delivery for a buffer the encode loop has not
// reached never promotes it, and the contiguous watermark never overruns
// an uncommitted predecessor.
func TestBufWindowOutOfOrderCommits(t *testing.T) {
	const buffers, depth = 4, 4
	w := newBufWindow(buffers, depth, func(int) int { return 1 })
	ctx := context.Background()

	// The last buffer's delivery races ahead of the pipeline entirely.
	w.landOne(3)
	if got := w.Committed(); got != 0 {
		t.Fatalf("watermark %d after landing an unacquired buffer, want 0", got)
	}
	for b := 0; b < buffers; b++ {
		if err := w.acquire(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer 3 committed on acquire (its ledger was complete), but the
	// watermark must hold at 0 while buffers 0-2 are partial.
	if got := w.Committed(); got != 0 {
		t.Fatalf("watermark %d with buffers 0-2 uncommitted, want 0", got)
	}
	w.landOne(1)
	if got := w.Committed(); got != 0 {
		t.Fatalf("watermark %d with buffer 0 uncommitted, want 0", got)
	}
	w.landOne(0)
	if got := w.Committed(); got != 2 {
		t.Fatalf("watermark %d after buffers 0-1 committed, want 2", got)
	}
	w.landOne(2)
	if got := w.Committed(); got != buffers {
		t.Fatalf("watermark %d after all commits, want %d", got, buffers)
	}
	if err := w.wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestBufWindowPartialNeverCommits checks that a buffer with an incomplete
// delivery ledger is never observable as committed.
func TestBufWindowPartialNeverCommits(t *testing.T) {
	w := newBufWindow(1, 1, func(int) int { return 3 })
	ctx := context.Background()
	if err := w.acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	w.landOne(0)
	w.landOne(0)
	if got := w.Committed(); got != 0 {
		t.Fatalf("watermark %d with 2/3 deliveries landed, want 0", got)
	}
	w.landOne(0)
	if got := w.Committed(); got != 1 {
		t.Fatalf("watermark %d after full ledger, want 1", got)
	}
}

// TestBufWindowDepthBound hammers the window with randomized delivery
// timing (run under -race): the in-flight high-water mark must never
// exceed the configured depth, and every buffer must eventually commit.
func TestBufWindowDepthBound(t *testing.T) {
	const buffers, depth = 32, 3
	w := newBufWindow(buffers, depth, func(int) int { return 1 })
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	yields := make([]int, buffers) // delivery jitter in scheduler yields, not wall time
	for b := range yields {
		yields[b] = rng.Intn(64)
	}

	var wg sync.WaitGroup
	for b := 0; b < buffers; b++ {
		if err := w.acquire(ctx, b); err != nil {
			t.Fatalf("acquire %d: %v", b, err)
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < yields[b]; i++ {
				runtime.Gosched()
			}
			w.landOne(b)
		}(b)
	}
	if err := w.wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := w.MaxInFlight(); got > depth {
		t.Fatalf("max in-flight %d exceeds depth %d", got, depth)
	}
	if got := w.Committed(); got != buffers {
		t.Fatalf("committed %d buffers, want %d", got, buffers)
	}
}

// TestBufWindowFailUnblocks checks the poison path: fail() releases an
// encode loop blocked on a credit and surfaces the first error everywhere.
func TestBufWindowFailUnblocks(t *testing.T) {
	w := newBufWindow(2, 1, func(int) int { return 1 })
	ctx := context.Background()
	if err := w.acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	acquired := make(chan error, 1)
	go func() {
		// Blocks: buffer 0 holds the only credit and never lands.
		acquired <- w.acquire(ctx, 1)
	}()
	awaitAcquireParked()
	w.fail(boom)
	w.fail(errors.New("second error must not displace the first"))
	if err := <-acquired; !errors.Is(err, boom) {
		t.Fatalf("blocked acquire returned %v, want %v", err, boom)
	}
	if err := w.wait(ctx); !errors.Is(err, boom) {
		t.Fatalf("wait returned %v, want %v", err, boom)
	}
	if err := w.failedErr(); !errors.Is(err, boom) {
		t.Fatalf("failedErr returned %v, want %v", err, boom)
	}
}

// TestBufWindowAcquireHonorsCancel checks that a context cancellation
// releases an encode loop stalled on a window credit.
func TestBufWindowAcquireHonorsCancel(t *testing.T) {
	w := newBufWindow(2, 1, func(int) int { return 1 })
	ctx, cancel := context.WithCancel(context.Background())
	if err := w.acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.acquire(ctx, 1) }()
	awaitAcquireParked()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire did not observe cancellation")
	}
}

// TestSaveKilledMidWindowKeepsPreviousCheckpoint is the streaming-pipeline
// chaos test: with 4 KiB buffer windows (several times pipelineDepth per
// packet) a node dies partway through a round — several windows committed,
// several in flight. The save must fail without promoting anything, and the
// previous checkpoint must stay fully recoverable.
func TestSaveKilledMidWindowKeepsPreviousCheckpoint(t *testing.T) {
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 3}, func(c *Config) {
		c.BufferSize = 4 << 10 // well over pipelineDepth windows per packet, so the kill lands mid-window
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save v1: %v", err)
	}

	const victim = 2
	// 25 sends puts the kill well inside round 2's buffer stream: past the
	// small-component broadcast, before the final window lands.
	if err := net.ScheduleKill(victim, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err == nil {
		t.Fatal("save v2 with a mid-window kill should fail")
	}
	if !net.Killed(victim) {
		t.Fatal("victim was never killed — the save failed for the wrong reason")
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Fatalf("version advanced to %d on a failed save", got)
	}
	for _, node := range rig.clus.AliveNodes() {
		if leftover := stagedKeys(rig.clus, node); len(leftover) != 0 {
			t.Errorf("node %d still holds staged blobs after aborted save: %v", node, leftover)
		}
	}

	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if err := net.Revive(victim); err != nil {
		t.Fatal(err)
	}
	got, report, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load after mid-window crash: %v", err)
	}
	if report.Version != 1 {
		t.Fatalf("recovered version %d, want 1", report.Version)
	}
	dictsEqual(t, rig.dicts, got)
}
