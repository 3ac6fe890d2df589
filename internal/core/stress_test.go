package core

import (
	"context"
	"testing"
)

// TestSaveLoadUnderTransportBackpressure uses a buffer size so small that
// every message stream carries far more buffers than the transport's
// per-stream queue depth (256), forcing senders to block on backpressure.
// The protocol must drain without deadlock and stay byte-exact.
func TestSaveLoadUnderTransportBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rig := newRig(t, 4, 2, 2, 2, noRemote, func(cfg *Config) {
		cfg.BufferSize = 192 // hundreds of slices per packet
	})
	ctx := context.Background()
	rep, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketBytes/192 < 300 {
		t.Fatalf("packet %d bytes yields too few slices for a backpressure test", rep.PacketBytes)
	}
	plan := rig.ckpt.Plan()
	for _, node := range []int{plan.DataNodes[0], plan.DataNodes[1]} {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, rig.dicts, got)
}

// TestConcurrentSavesRejected documents that a Checkpointer is a
// single-writer object: the version counter and host-memory keys assume
// one save at a time, which the training loop guarantees (checkpoints are
// serialized with iterations). Two sequential saves must both work.
func TestSequentialSavesAdvanceVersions(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	for v := 1; v <= 3; v++ {
		rep, err := rig.ckpt.Save(ctx, rig.dicts)
		if err != nil {
			t.Fatalf("save %d: %v", v, err)
		}
		if rep.Version != v {
			t.Errorf("save %d got version %d", v, rep.Version)
		}
	}
}
