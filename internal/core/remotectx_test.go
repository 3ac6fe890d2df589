package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"eccheck/internal/obs"
)

// TestLoadFromRemoteBoundedOnHungTier persists a checkpoint, hangs the
// remote tier, and asserts the restore fails within the configured
// per-operation deadline instead of freezing. Clearing the fault must make
// the same restore succeed.
func TestLoadFromRemoteBoundedOnHungTier(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) { c.OpTimeout = 200 * time.Millisecond })
	ctx := context.Background()

	// RemotePersistEvery is 2 in the rig: the second save persists v2.
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	rig.remote.SetStall(30 * time.Second)
	start := time.Now()
	_, err := rig.ckpt.LoadFromRemote(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung-tier restore: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hung-tier restore took %v despite the 200ms op bound", elapsed)
	}

	rig.remote.SetStall(0)
	got, err := rig.ckpt.LoadFromRemote(ctx, 0)
	if err != nil {
		t.Fatalf("restore after clearing stall: %v", err)
	}
	dictsEqual(t, rig.dicts, got)
}

// TestCloseCancelsInFlightRemoteLoad hangs the remote tier with a stall
// longer than the op deadline would allow only if deadlines were ignored,
// then closes the checkpointer mid-restore: the restore must unwind with a
// typed abort and Close must wait for it.
func TestCloseCancelsInFlightRemoteLoad(t *testing.T) {
	tracker, started := roundStartSignal(OpRemoteLoad)
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) {
		c.OpTimeout = 30 * time.Second
		c.Health = tracker
	})
	ctx := context.Background()

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	rig.remote.SetStall(30 * time.Second)

	var wg sync.WaitGroup
	var loadErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, loadErr = rig.ckpt.LoadFromRemote(ctx, 0)
	}()
	// The round starts once it is registered for cancellation; close then.
	// Whether it has reached the store's stalled fetch yet is not observable,
	// and does not matter: the tier stalls every fetch past the test's end,
	// so only Close's cancellation can end the round.
	<-started
	start := time.Now()
	closeErr := rig.ckpt.Close()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v; it must cancel the stalled restore, not wait it out", elapsed)
	}
	if loadErr == nil {
		t.Fatal("restore against a hung tier succeeded?")
	}
	if !errors.Is(loadErr, ErrSaveAborted) && !errors.Is(loadErr, ErrClosed) {
		t.Fatalf("cancelled restore: err = %v, want ErrSaveAborted or ErrClosed", loadErr)
	}
	if !errors.Is(closeErr, ErrSaveAborted) {
		t.Fatalf("Close() = %v, want error wrapping ErrSaveAborted", closeErr)
	}
}

// TestCommittedRoundSurvivesPersistStall: a round whose commit has landed
// succeeds however its remote persist ends. With the tier hung past the op
// deadline, the save of v2 returns nil with RemotePersisted false, v2 is
// the committed and loadable version, the failure is counted, and the ranks
// the attempt wrote are gone from the tier. Once the tier recovers the next
// persisting round lands whole.
func TestCommittedRoundSurvivesPersistStall(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) {
		c.OpTimeout = 100 * time.Millisecond
		c.Metrics = obs.NewRegistry()
	})
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, 1)); err != nil {
		t.Fatal(err)
	}
	rig.remote.SetStall(30 * time.Second)
	rep, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, 2))
	if err != nil {
		t.Fatalf("save of v2 with a hung remote tier: %v", err)
	}
	if rep.RemotePersisted {
		t.Error("RemotePersisted = true for a persist the tier never took")
	}
	if got := rig.ckpt.Version(); got != 2 {
		t.Fatalf("Version() = %d, want 2", got)
	}
	if n, _ := rig.ckpt.cfg.Metrics.Snapshot().Counter("remote_persist_failures_total"); n != 1 {
		t.Errorf("remote_persist_failures_total = %d, want 1", n)
	}
	if keys := rig.remote.Keys(remoteKeyPrefix); len(keys) != 0 {
		t.Errorf("the failed persist left %q in the tier", keys)
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, stampVersion(rig.dicts, 2), got)

	rig.remote.SetStall(0)
	for i := 3; i <= 4; i++ {
		if rep, err = rig.ckpt.Save(ctx, stampVersion(rig.dicts, i)); err != nil {
			t.Fatal(err)
		}
	}
	if !rep.RemotePersisted {
		t.Fatal("v4 not persisted once the tier recovered")
	}
	if got, err = rig.ckpt.LoadFromRemote(ctx, 0); err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, stampVersion(rig.dicts, 4), got)
}

// TestCloseDuringPersistKeepsCommittedRound: Close that lands while a
// committed round persists cancels the persist, not the round. The save
// returns nil, and so does Close — the commit has won.
func TestCloseDuringPersistKeepsCommittedRound(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) { c.OpTimeout = 30 * time.Second })
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	rig.remote.SetStall(30 * time.Second) // only Close can end v2's persist
	type result struct {
		rep *SaveReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := rig.ckpt.Save(ctx, rig.dicts)
		done <- result{rep, err}
	}()
	for rig.ckpt.Version() != 2 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := rig.ckpt.Close(); err != nil {
		t.Errorf("Close() during a committed round's persist = %v, want nil", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v; it must cancel the stalled persist", elapsed)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("save of v2 = %v, want nil: it committed", res.err)
	}
	if res.rep.RemotePersisted {
		t.Error("RemotePersisted = true for a persist Close cancelled")
	}
}
