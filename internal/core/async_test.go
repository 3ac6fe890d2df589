package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/obs/health"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
)

// slowPlan adds link latency to every send, stretching the drain (which is
// all communication) without touching the snapshot stage (which sends
// nothing). Tests use it to hold a round in flight deterministically.
func slowPlan(latency time.Duration) chaos.Plan {
	return chaos.Plan{Seed: 1, Latency: latency}
}

// TestSaveAsyncCommitsAndLoads is the tentpole happy path: SaveAsync
// returns after the snapshot, the background drain commits the version,
// and the checkpoint is loadable. The report's stall/overlap split must
// partition the round's wall time.
func TestSaveAsyncCommitsAndLoads(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()

	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save async: %v", err)
	}
	if h.Stall() <= 0 {
		t.Error("Stall() must be positive once SaveAsync returned")
	}
	report, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if report.Version != 1 {
		t.Fatalf("committed version %d, want 1", report.Version)
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Fatalf("Version() = %d after drain, want 1", got)
	}
	if report.StallNs != h.Stall() {
		t.Errorf("report.StallNs %v != handle stall %v", report.StallNs, h.Stall())
	}
	if report.StallNs+report.OverlapNs != report.Elapsed {
		t.Errorf("StallNs %v + OverlapNs %v != Elapsed %v",
			report.StallNs, report.OverlapNs, report.Elapsed)
	}
	if report.OverlapNs <= 0 {
		t.Error("async round must report positive drain overlap")
	}
	if err := h.Err(); err != nil {
		t.Errorf("Err() after commit = %v", err)
	}

	// No staged leftovers, and the checkpoint round-trips.
	for node := 0; node < 4; node++ {
		if leftover := stagedKeys(rig.clus, node); len(leftover) != 0 {
			t.Errorf("node %d holds staged blobs after async save: %v", node, leftover)
		}
	}
	got, lr, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if lr.Version != 1 {
		t.Fatalf("loaded version %d, want 1", lr.Version)
	}
	dictsEqual(t, rig.dicts, got)
}

// TestSaveAsyncSnapshotIsolatesLiveDicts mutates the live dicts right
// after SaveAsync returns — the moment training would resume. The
// committed checkpoint must hold the pre-mutation state: the snapshot owns
// private copies.
func TestSaveAsyncSnapshotIsolatesLiveDicts(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()

	// Keep pristine copies to compare the recovery against.
	want := make([]*statedict.StateDict, len(rig.dicts))
	for i, sd := range rig.dicts {
		want[i] = sd.Clone()
	}

	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save async: %v", err)
	}
	// Training resumes: scribble every live tensor while the drain runs.
	for _, sd := range rig.dicts {
		for _, entry := range sd.TensorEntries() {
			data := entry.Tensor.Data()
			for i := range data {
				data[i] ^= 0x5A
			}
		}
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	dictsEqual(t, want, got)
}

// TestSaveAsyncPreviousVersionVisibleDuringDrain holds a second round in
// flight (via link latency) and asserts the committed version stays at the
// previous value until the drain passes the commit barrier.
func TestSaveAsyncPreviousVersionVisibleDuringDrain(t *testing.T) {
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(3*time.Millisecond))
	ctx := context.Background()

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save async v2: %v", err)
	}
	// The drain is still running (latency stretches it); the committed
	// version must still be v1 and Err() must be nil (in flight, not
	// failed).
	select {
	case <-h.Done():
		t.Log("drain finished before the probe; version check is vacuous")
	default:
		if got := rig.ckpt.Version(); got != 1 {
			t.Errorf("Version() = %d mid-drain, want 1", got)
		}
	}
	report, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if report.Version != 2 || rig.ckpt.Version() != 2 {
		t.Fatalf("after drain: report v%d, Version() %d, want 2", report.Version, rig.ckpt.Version())
	}
}

// TestSaveReentrancyGuard starts an async round and races a synchronous
// Save against its drain: the synchronous path must fail fast with
// ErrSaveInFlight, and the draining round must still commit.
func TestSaveReentrancyGuard(t *testing.T) {
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(3*time.Millisecond))
	ctx := context.Background()

	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save async: %v", err)
	}
	select {
	case <-h.Done():
		t.Fatal("drain finished instantly despite link latency; cannot exercise the guard")
	default:
	}
	if _, err := rig.ckpt.Save(ctx, rig.dicts); !errors.Is(err, ErrSaveInFlight) {
		t.Fatalf("Save during drain: err = %v, want ErrSaveInFlight", err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatalf("the guarded round must still commit: %v", err)
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Fatalf("Version() = %d, want 1", got)
	}
}

// TestConcurrentSavesOneWinner races two synchronous Saves from two
// goroutines: exactly one commits, the other fails with ErrSaveInFlight
// (or both serialize cleanly if the first finishes before the second
// acquires — the invariant is no round is lost and no round races).
func TestConcurrentSavesOneWinner(t *testing.T) {
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(2*time.Millisecond))
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rig.ckpt.Save(ctx, rig.dicts)
		}(i)
	}
	wg.Wait()

	committed, rejected := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			committed++
		case errors.Is(err, ErrSaveInFlight):
			rejected++
		default:
			t.Fatalf("unexpected save error: %v", err)
		}
	}
	if committed < 1 {
		t.Fatal("no save committed")
	}
	if committed+rejected != 2 {
		t.Fatalf("committed %d + rejected %d != 2", committed, rejected)
	}
	if got := rig.ckpt.Version(); got != committed {
		t.Fatalf("Version() = %d, want %d (one bump per committed round)", got, committed)
	}
}

// TestSaveAsyncSecondWaitsForFirst verifies the documented SaveAsync
// policy: a second call while a drain is in flight waits for it instead of
// failing, and both rounds commit in order.
func TestSaveAsyncSecondWaitsForFirst(t *testing.T) {
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(2*time.Millisecond))
	ctx := context.Background()

	h1, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("first save async: %v", err)
	}
	h2, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("second save async: %v", err)
	}
	// By the time the second snapshot could begin, the first round must
	// have fully drained.
	select {
	case <-h1.Done():
	default:
		t.Error("second SaveAsync returned while the first round was still draining")
	}
	r1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatalf("first round: %v", err)
	}
	r2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatalf("second round: %v", err)
	}
	if r1.Version != 1 || r2.Version != 2 {
		t.Fatalf("versions %d, %d; want 1, 2", r1.Version, r2.Version)
	}
	if got := rig.ckpt.Version(); got != 2 {
		t.Fatalf("Version() = %d, want 2", got)
	}
}

// TestCloseAbortsInFlightDrain closes the checkpointer while an async
// drain is running: Close must cancel the round, wait for it to unwind,
// and report the thrown-away work with ErrSaveAborted; the handle must
// carry the abort too, and the previous checkpoint must stay recoverable.
func TestCloseAbortsInFlightDrain(t *testing.T) {
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(5*time.Millisecond))
	ctx := context.Background()

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save async: %v", err)
	}
	select {
	case <-h.Done():
		t.Fatal("drain finished before Close could interrupt it")
	default:
	}
	closeErr := rig.ckpt.Close()
	select {
	case <-h.Done():
	default:
		t.Fatal("Close returned while the drain was still running")
	}
	if err := h.Err(); !errors.Is(err, ErrSaveAborted) {
		t.Errorf("aborted round's Err() = %v, want ErrSaveAborted", err)
	}
	if !errors.Is(closeErr, ErrSaveAborted) {
		t.Errorf("Close() = %v, want error wrapping ErrSaveAborted", closeErr)
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Errorf("Version() = %d after aborted drain, want 1", got)
	}
	// Second Close is a clean no-op.
	if err := rig.ckpt.Close(); err != nil {
		t.Errorf("idempotent Close() = %v", err)
	}
	// Rounds after Close are refused.
	if _, err := rig.ckpt.Save(ctx, rig.dicts); !errors.Is(err, ErrClosed) {
		t.Errorf("Save after Close = %v, want ErrClosed", err)
	}
	if _, err := rig.ckpt.SaveAsync(ctx, rig.dicts); !errors.Is(err, ErrClosed) {
		t.Errorf("SaveAsync after Close = %v, want ErrClosed", err)
	}
	if _, _, err := rig.ckpt.Load(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Load after Close = %v, want ErrClosed", err)
	}
}

// roundStartSignal returns a health tracker whose event sink closes the
// returned channel once the first round of op has started: the round holds
// its slot and is registered for cancellation.
func roundStartSignal(op string) (*health.Tracker, <-chan struct{}) {
	tracker := health.NewTracker(func() health.Probe { return health.Probe{} })
	started := make(chan struct{})
	var once sync.Once
	tracker.SetSink(func(ev health.Event) {
		if ev.Kind == health.KindRound && ev.State == "start" && ev.Op == op {
			once.Do(func() { close(started) })
		}
	})
	return tracker, started
}

// TestCloseConcurrentWithSave races Close against a synchronous Save from
// another goroutine (the regression shape for the lifecycle races this
// package guards against; run under -race). Every outcome must be one of:
// the save committed before Close, or the save failed with a typed
// lifecycle error.
func TestCloseConcurrentWithSave(t *testing.T) {
	tracker, started := roundStartSignal(OpSave)
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(time.Millisecond), func(c *Config) { c.Health = tracker })
	ctx := context.Background()

	var wg sync.WaitGroup
	var saveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, saveErr = rig.ckpt.Save(ctx, rig.dicts)
	}()
	// Once the save owns the slot and its round has begun, slam the door.
	<-started
	_ = rig.ckpt.Close()
	wg.Wait()

	if saveErr == nil {
		if got := rig.ckpt.Version(); got != 1 {
			t.Fatalf("save reported success but Version() = %d", got)
		}
		return
	}
	if !errors.Is(saveErr, ErrSaveAborted) && !errors.Is(saveErr, ErrClosed) {
		t.Fatalf("racing save error = %v, want ErrSaveAborted or ErrClosed", saveErr)
	}
	if got := rig.ckpt.Version(); got != 0 {
		t.Fatalf("aborted save advanced version to %d", got)
	}
}

// TestChaosKillDuringDrain is the crash-during-drain acceptance test: the
// kill fires after SaveAsync returned (the snapshot sends nothing, so a
// send-triggered kill lands in the drain). The round must abort cleanly —
// bounded error, no staged leftovers, no leaked pooled buffers — and the
// previous checkpoint must be recoverable after replacing the machine.
func TestChaosKillDuringDrain(t *testing.T) {
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1})
	ctx := context.Background()

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save v1: %v", err)
	}

	const victim = 1
	if err := net.ScheduleKill(victim, 10); err != nil {
		t.Fatal(err)
	}
	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("SaveAsync must survive the snapshot (no sends yet): %v", err)
	}
	start := time.Now()
	if _, err := h.Wait(ctx); err == nil {
		t.Fatal("drain with a mid-round kill should abort")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("aborted drain took %v; deadlines should bound it", elapsed)
	}
	if !net.Killed(victim) {
		t.Fatal("victim was never killed — the drain failed for the wrong reason")
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Fatalf("version advanced to %d on an aborted drain", got)
	}
	for _, node := range rig.clus.AliveNodes() {
		if leftover := stagedKeys(rig.clus, node); len(leftover) != 0 {
			t.Errorf("node %d still holds staged blobs after aborted drain: %v", node, leftover)
		}
	}

	// Replace the machine, recover v1, then prove no pooled buffer leaked
	// into the recovered state or the stored checkpoint.
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if err := net.Revive(victim); err != nil {
		t.Fatal(err)
	}
	got, report, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatalf("load after crashed drain: %v", err)
	}
	if report.Version != 1 {
		t.Fatalf("recovered version %d, want 1 (v2 never committed)", report.Version)
	}
	scribblePool(t)
	dictsEqual(t, rig.dicts, got)
}

// ballast widens the snapshot window: a multi-megabyte tensor on a node-0
// worker makes that node's snapshot (decompose + packet copy) take long
// enough for the test to act while the save slot is held.
func ballast(t *testing.T, rig *testRig) {
	t.Helper()
	big, err := tensor.New(tensor.Float32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	big.FillPattern(42)
	if err := rig.dicts[0].SetTensor("ballast", big); err != nil {
		t.Fatal(err)
	}
}

// captureInflight spins until it observes the in-flight save handle — the
// same capture Close, a queued SaveAsync or a waiting Load performs. stop
// aborts the spin (the round ended before the slot was observed).
func captureInflight(c *Checkpointer, stop <-chan error) (*SaveHandle, error, bool) {
	for {
		c.lc.mu.Lock()
		r := c.lc.slot
		c.lc.mu.Unlock()
		if r != nil {
			return r.h, nil, true
		}
		select {
		case err := <-stop:
			return nil, err, false
		default:
			runtime.Gosched()
		}
	}
}

// TestSaveAsyncSnapshotFailureReleasesWaiters is the regression test for
// the snapshot-failure deadlock: a round whose snapshot stage fails must
// finalize its handle as well as the save slot, or any goroutine that
// captured the handle as the in-flight round (Close, a queued SaveAsync, a
// Load waiting for the drain) blocks on Done() forever.
func TestSaveAsyncSnapshotFailureReleasesWaiters(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()

	// Node 0 snapshots slowly (ballast) while a node-1 worker's snapshot
	// fails fast: a zero statedict.Value has no encodable kind, so its
	// decompose errors. The slot stays held until the slow snapshot ends,
	// leaving a wide window to capture the doomed handle.
	ballast(t, rig)
	rig.dicts[2].SetMeta("poison", statedict.Value{})

	errc := make(chan error, 1)
	go func() {
		_, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
		errc <- err
	}()
	h, saveErr, captured := captureInflight(rig.ckpt, errc)
	if !captured {
		// The round failed before the slot was ever observable; the window
		// shrank to nothing on this run, but the error still must be typed.
		if saveErr == nil {
			t.Fatal("poisoned snapshot must fail SaveAsync")
		}
		return
	}
	if err := <-errc; err == nil {
		t.Fatal("poisoned snapshot must fail SaveAsync")
	}
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("failed snapshot never completed its handle; captured waiters would deadlock")
	}
	if err := h.Err(); err == nil {
		t.Error("failed round's handle must carry its error")
	}
	// The slot is free again: a clean round must go through.
	rig.dicts[2].SetMeta("poison", statedict.Int(0))
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save after failed snapshot: %v", err)
	}
}

// TestCloseDuringSnapshotCancelsDrain closes the checkpointer while the
// round is still in its blocking snapshot stage, before the drain starts.
// The abort must not be lost: the round's context, which the drain runs
// under, is cancelled already, so the drain aborts instead of running the
// full protocol on a dying network.
func TestCloseDuringSnapshotCancelsDrain(t *testing.T) {
	rig, _ := newChaosRig(t, 4, 2, 2, 2, slowPlan(5*time.Millisecond))
	ctx := context.Background()
	ballast(t, rig)

	errc := make(chan error, 1)
	go func() {
		h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
		if err != nil {
			errc <- err
			return
		}
		_, err = h.Wait(ctx)
		errc <- err
	}()
	h, saveErr, captured := captureInflight(rig.ckpt, errc)
	if !captured {
		t.Fatalf("round ended before the slot was observable: %v", saveErr)
	}
	closeErr := rig.ckpt.Close()
	if !errors.Is(closeErr, ErrSaveAborted) {
		t.Errorf("Close() = %v, want error wrapping ErrSaveAborted", closeErr)
	}
	if err := h.Err(); !errors.Is(err, ErrSaveAborted) {
		t.Errorf("aborted round's Err() = %v, want ErrSaveAborted", err)
	}
	if err := <-errc; err == nil {
		t.Error("Wait on the aborted round returned nil error")
	}
	if got := rig.ckpt.Version(); got != 0 {
		t.Errorf("Version() = %d after abort-during-snapshot, want 0", got)
	}
}

// TestCloseCleanLoadNotReportedAborted pins Close's contract that a round
// finishing before the cancellation lands is not an error: a load round
// Close captured but that ends cleanly must not surface as aborted work.
func TestCloseCleanLoadNotReportedAborted(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	r, _, err := rig.ckpt.open(context.Background(), roundRestore, OpLoad, saveMode{})
	if err != nil {
		t.Fatal(err)
	}
	closeErrc := make(chan error, 1)
	go func() { closeErrc <- rig.ckpt.Close() }()
	// Once closed is set, Close holds the round and is waiting on its done
	// channel; finish the round cleanly.
	for closed := false; !closed; runtime.Gosched() {
		rig.ckpt.lc.mu.Lock()
		closed = rig.ckpt.lc.closed
		rig.ckpt.lc.mu.Unlock()
	}
	r.end(nil, nil)
	if err := <-closeErrc; err != nil {
		t.Errorf("Close() = %v after a cleanly finished load, want nil", err)
	}
}

// TestRoundEndVisibleWhenWaitReturns pins the completion order of a save
// handle: the round-end fan-out (health and its event sink, log) runs before
// Done closes, so whoever Wait releases reads health that already counts the
// round and a sink that already saw its end event.
func TestRoundEndVisibleWhenWaitReturns(t *testing.T) {
	tracker := health.NewTracker(func() health.Probe { return health.Probe{} })
	rig := newRig(t, 4, 2, 2, 2, noRemote, func(c *Config) { c.Health = tracker })
	var ended atomic.Int32
	tracker.SetSink(func(ev health.Event) {
		if ev.Kind != health.KindRound || ev.State != "end" {
			return
		}
		for i := 0; i < 100; i++ {
			runtime.Gosched() // give a waiter released too early every chance to run first
		}
		ended.Add(1)
	})
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := int(ended.Load()); got != i {
			t.Fatalf("round %d: Wait returned with %d round-end events delivered", i, got)
		}
		if rep := tracker.Report(); rep.SaveWindow != i || rep.SaveSuccess != i {
			t.Fatalf("round %d: health right after Wait counts %d/%d saves", i, rep.SaveSuccess, rep.SaveWindow)
		}
	}
}
