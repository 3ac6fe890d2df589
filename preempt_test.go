package eccheck

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestNoticeExpiresWithoutChaos: without chaos the preemption deadline is the
// drain's context, nothing else. Another membership step holds the save slot,
// so the drain cannot even start; when the 20ms notice runs out PreemptNode
// must come back degraded with the victim already dead, and once the slot is
// free the join rebuilds the lost chunk byte for byte.
func TestNoticeExpiresWithoutChaos(t *testing.T) {
	sys, err := Initialize(Config{Nodes: 4, GPUsPerNode: 2, TPDegree: 2, PPStages: 4, K: 2, M: 2, BufferSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	opt := NewBuildOptions()
	opt.Scale = 32
	dicts, err := BuildClusterStateDicts(ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	victim, holder := sys.DataNodes()[0], sys.ParityNodes()[0]

	held, release, fenceErr := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		fenceErr <- sys.ckpt.WithSaveFence(ctx, holder, func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	rep, err := sys.PreemptNode(ctx, victim, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("PreemptNode: %v", err)
	}
	if rep.Completed || rep.Reason == "" {
		t.Fatalf("a drain that never got the save slot came back %+v, want degraded with a reason", rep)
	}
	if slices.Contains(sys.AliveNodes(), victim) {
		t.Fatal("PreemptNode returned with the victim still alive")
	}

	close(release)
	if err := <-fenceErr; err != nil {
		t.Fatal(err)
	}
	join, err := sys.AddNode(ctx, victim)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if join.Restored || join.Rebuilt == nil {
		t.Fatalf("join after an expired notice must rebuild in place: %+v", join)
	}
	if sys.FaultTolerance() != 2 {
		t.Fatalf("FaultTolerance = %d after the join, want 2", sys.FaultTolerance())
	}
	got, _, err := sys.Load(ctx)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Fatalf("rank %d: recovered dict differs", rank)
		}
	}
}
