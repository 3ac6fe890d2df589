package core

import (
	"context"
	"sync"
	"time"

	"eccheck/internal/obs/flight"
)

// bufWindow is the per-node buffer-window state machine of the streaming
// save pipeline. Each node's packet is split into fixed-size buffer windows
// (Config.BufferSize); the encode loop may only work on a bounded number of
// windows at once (pipelineDepth), and a window retires — releasing
// its credit back to the loop — only when every delivery it owes this node
// has landed: local stage copies, reduction finalizes or partial forwards,
// and P2P arrivals. Encode/XOR/P2P for buffer i+1 therefore overlaps the
// commit of buffer i, while the credit bound keeps the pooled-buffer
// footprint (drawn from internal/bufpool) proportional to the depth rather
// than to the packet size.
//
// The window is also the node's commit ledger: buffers may land out of
// order (deliveries arrive on receiver goroutines), but the contiguous
// watermark only advances across fully landed buffers, so a partially
// delivered window is never observable as committed. The round's barrier is
// wait(), which returns once every buffer committed or the round failed.
type bufWindow struct {
	numBuffers int
	depth      int
	expected   []int // per-buffer deliveries owed, fixed at construction

	mu        sync.Mutex
	cond      *sync.Cond
	landed    []int       // deliveries landed so far, by buffer
	began     []time.Time // when the encode loop acquired the buffer, if rec is set
	acquired  []bool      // whether the encode loop holds the buffer's credit
	committed []bool
	inFlight  int // acquired but not yet fully landed
	maxFlight int // high-water mark, for invariant tests
	watermark int // first buffer index not yet committed
	err       error
	failed    bool

	// Flight emission context: every buffer commit lands as an EvBuffer
	// span from acquire to the last delivery. rec nil disables emission.
	rec   *flight.Recorder
	op    string
	node  int
	round int
}

// newBufWindow builds the ledger for one node's round. expect returns the
// delivery count buffer b owes the node; a buffer owing zero deliveries
// (possible on nodes that neither store a chunk nor root any reduction)
// commits the moment the encode loop acquires it.
func newBufWindow(numBuffers, depth int, expect func(b int) int) *bufWindow {
	w := &bufWindow{
		numBuffers: numBuffers,
		depth:      depth,
		expected:   make([]int, numBuffers),
		landed:     make([]int, numBuffers),
		began:      make([]time.Time, numBuffers),
		acquired:   make([]bool, numBuffers),
		committed:  make([]bool, numBuffers),
	}
	w.cond = sync.NewCond(&w.mu)
	for b := 0; b < numBuffers; b++ {
		w.expected[b] = expect(b)
	}
	return w
}

// emitTo routes buffer-commit spans to the flight recorder for (op, node,
// round).
func (w *bufWindow) emitTo(rec *flight.Recorder, op string, node, round int) {
	w.rec, w.op, w.node, w.round = rec, op, node, round
}

// acquire blocks until a window credit is free (fewer than depth buffers in
// flight), then charges buffer b against the window. It unblocks with an
// error when the round fails or ctx is cancelled. Buffers owing zero
// deliveries commit immediately.
func (w *bufWindow) acquire(ctx context.Context, b int) error {
	// cond waiters cannot select on ctx; a cancel watcher broadcasts so a
	// blocked encode loop observes the cancellation promptly.
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		w.mu.Unlock() //nolint:staticcheck // empty section orders the broadcast after any in-flight acquire check
		w.cond.Broadcast()
	})
	defer stop()

	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inFlight >= w.depth && !w.failed && ctx.Err() == nil {
		w.cond.Wait()
	}
	if w.failed {
		return w.err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.rec != nil {
		w.began[b] = time.Now()
	}
	w.acquired[b] = true
	w.inFlight++
	if w.inFlight > w.maxFlight {
		w.maxFlight = w.inFlight
	}
	// Deliveries may have raced ahead of the encode loop (a fast peer's P2P
	// copy for this buffer can land first); if the ledger is already
	// complete — or the buffer owes nothing — it commits immediately.
	if w.landed[b] >= w.expected[b] {
		w.commitLocked(b)
	}
	return nil
}

// landOne records one delivery for buffer b, committing the buffer when its
// ledger is complete. Safe from any goroutine. A buffer never commits —
// and never returns its credit — before the encode loop acquired it, so
// out-of-order deliveries cannot promote a window the pipeline has not
// reached yet.
func (w *bufWindow) landOne(b int) {
	w.mu.Lock()
	w.landed[b]++
	if w.acquired[b] && !w.committed[b] && w.landed[b] >= w.expected[b] {
		w.commitLocked(b)
	}
	w.mu.Unlock()
}

// commitLocked retires buffer b: the credit returns to the encode loop, the
// contiguous watermark advances across fully committed buffers only, and
// the buffer's lifetime lands in the flight recorder as an EvBuffer span.
func (w *bufWindow) commitLocked(b int) {
	w.committed[b] = true
	w.inFlight--
	for w.watermark < w.numBuffers && w.committed[w.watermark] {
		w.watermark++
	}
	if w.rec != nil && !w.began[b].IsZero() {
		w.rec.Buffer(w.op, w.node, w.round, b, w.began[b], time.Since(w.began[b]))
	}
	w.cond.Broadcast()
}

// fail poisons the window with the round's first error, waking every
// waiter. Subsequent fail calls keep the first error.
func (w *bufWindow) fail(err error) {
	w.mu.Lock()
	if !w.failed {
		w.failed = true
		w.err = err
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// failedErr returns the poisoning error, or nil while the window is
// healthy.
func (w *bufWindow) failedErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return w.err
	}
	return nil
}

// wait blocks until every buffer committed (nil), the window was poisoned
// (the first error), or ctx was cancelled.
func (w *bufWindow) wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		w.mu.Unlock() //nolint:staticcheck // see acquire
		w.cond.Broadcast()
	})
	defer stop()

	w.mu.Lock()
	defer w.mu.Unlock()
	for w.watermark < w.numBuffers && !w.failed && ctx.Err() == nil {
		w.cond.Wait()
	}
	if w.failed {
		return w.err
	}
	if w.watermark >= w.numBuffers {
		return nil
	}
	return ctx.Err()
}

// Committed reports how many buffers have fully landed (the contiguous
// watermark, which out-of-order deliveries never overrun).
func (w *bufWindow) Committed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.watermark
}

// MaxInFlight reports the in-flight high-water mark; it never exceeds the
// configured depth.
func (w *bufWindow) MaxInFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxFlight
}
