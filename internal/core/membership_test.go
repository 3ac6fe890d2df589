package core

import (
	"context"
	"strings"
	"testing"
)

// TestJoinWithoutKSurvivorsStaysAnErasure: a join whose restore round cannot
// finish — here m + 1 slots of one group are empty, so fewer than k chunks
// survive — returns that round's error and leaves the joiner an erasure;
// the retry fails the same way, and no slot was made to look whole. Once the
// join can finish, it does, and repeating it finds the slot already intact.
func TestJoinWithoutKSurvivorsStaysAnErasure(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	plan := rig.ckpt.Plan()
	lost := []int{plan.DataNodes[0], plan.DataNodes[1], plan.ParityNodes[0]}
	kept := map[string][]byte{} // the last casualty's memory, to bring it back below
	for _, key := range rig.clus.Keys(lost[2]) {
		raw, err := rig.clus.Load(lost[2], key)
		if err != nil {
			t.Fatal(err)
		}
		kept[key] = raw
	}
	for _, node := range lost {
		loseNode(t, rig, node)
	}
	for try := 0; try < 2; try++ {
		join, err := rig.ckpt.RepairNode(ctx, lost[0])
		if err == nil || !strings.Contains(err.Error(), "only 1 of 4 chunks survive") {
			t.Fatalf("try %d: join with one chunk left: %+v, %v", try, join, err)
		}
		if got := rig.ckpt.DegradedSlots(); got != len(lost) {
			t.Fatalf("try %d: %d degraded slots after the failed join, want %d", try, got, len(lost))
		}
		if rig.clus.Has(lost[0], keyManifest()) {
			t.Fatalf("try %d: the failed join left a manifest on the joiner", try)
		}
	}

	for key, raw := range kept {
		if err := rig.clus.Store(lost[2], key, raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range lost[:2] {
		if join, err := rig.ckpt.RepairNode(ctx, node); err != nil || join.Rebuilt == nil || join.Rebuilt.Segments == 0 {
			t.Fatalf("join of node %d with k chunks back: %+v, %v", node, join, err)
		}
	}
	if join, err := rig.ckpt.RepairNode(ctx, lost[0]); err != nil || join.Restored || !join.Rebuilt.AlreadyIntact {
		t.Fatalf("repeated join: %+v, %v", join, err)
	}
	if got := rig.ckpt.DegradedSlots(); got != 0 {
		t.Fatalf("%d degraded slots after every join returned", got)
	}
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil || len(rep.MissingChunks) != 0 {
		t.Fatalf("load after the joins: %+v, %v", rep, err)
	}
	dictsEqual(t, rig.dicts, got)
	verifyClean(t, rig)
}
