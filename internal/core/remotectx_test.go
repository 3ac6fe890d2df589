package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
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
