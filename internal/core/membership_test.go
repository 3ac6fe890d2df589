package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestJoinAfterAbortedReseatIgnoresStaleMigration: a reseat that dies while
// migrating a chunk leaves the rest of the chunk's stream in the new owner's
// mailbox — the sender runs ahead of the receiver. The stream is positional
// (flag, blob, flag, blob), so a retried join that read those messages would
// store one segment's bytes under another segment's key, checksum and all.
// The aborted transfer advances the epoch, the retry migrates under fresh
// tags, and the stale messages are still in the mailbox when it is done.
func TestJoinAfterAbortedReseatIgnoresStaleMigration(t *testing.T) {
	hook := &storeHook{}
	rig, _ := newWrappedRig(t, 4, 2, 2, 2, func(hs HostStore) HostStore {
		hook.HostStore = hs
		return hook
	}, func(c *Config) { c.RemotePersistEvery = -1 })
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	lay := rig.ckpt.layout()
	victim := lay.plan.DataNodes[0]
	loseNode(t, rig, victim) // a crash leave of a data slot: the join reseats
	stale := rig.ckpt.roundTags(lay)

	// Cut the first migration at its second segment.
	var chunk, dst, segs int
	cut := func(op string, node int, key string) error {
		var c, s int
		if n, _ := fmt.Sscanf(key, "chunk/%d/seg/%d", &c, &s); op != "store" || n != 2 {
			return nil
		}
		if segs++; segs == 2 {
			chunk, dst = c, node
			return errors.New("host memory exhausted")
		}
		return nil
	}
	hook.fn.Store(&cut)
	if _, err := rig.ckpt.RepairNode(ctx, victim); err == nil {
		t.Fatal("join whose migration was cut reported success")
	}
	hook.fn.Store(nil)
	if rig.ckpt.layout() != lay {
		t.Fatal("aborted reseat published a layout")
	}
	tags := rig.ckpt.roundTags(lay)
	if tags.epoch == stale.epoch || tags.migrate[chunk] == stale.migrate[chunk] {
		t.Fatalf("aborted migration did not advance the epoch: tag %q then, %q now", stale.migrate[chunk], tags.migrate[chunk])
	}

	join, err := rig.ckpt.RepairNode(ctx, victim)
	if err != nil || !join.Reseated {
		t.Fatalf("retried join: %+v, %v", join, err)
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil || rep.Version != 1 {
		t.Fatalf("load after the retried join: %+v, %v", rep, err)
	}
	dictsEqual(t, rig.dicts, got)
	verifyClean(t, rig)

	// Nobody consumed what the aborted migration left behind.
	ep, err := rig.net.Endpoint(dst)
	if err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := ep.Recv(rctx, lay.plan.ChunkOwner(0, chunk), stale.migrate[chunk]); err != nil {
		t.Fatalf("the stale %q message is gone from node %d's mailbox: %v", stale.migrate[chunk], dst, err)
	}
}
