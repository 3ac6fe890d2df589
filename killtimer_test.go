package eccheck

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestStaleKillTimerCannotKillTheReplacement fires the stale deadline on
// purpose, on a system without chaos (the System owns the timer there). A
// timer that has already expired cannot be stopped: its goroutine may land
// after the leave it belonged to is over and AddNode has refilled the slot.
// The test arms a notice, lets the node leave and rejoin, then runs what the
// timer runs — deadlineKill under the generation the notice was armed with.
func TestStaleKillTimerCannotKillTheReplacement(t *testing.T) {
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
	victim := sys.DataNodes()[0]
	sys.timerMu.Lock()
	armed := sys.killGen[victim] // what PreemptNode's timer captures
	sys.timerMu.Unlock()
	if rep, err := sys.PreemptNode(ctx, victim, time.Hour); err != nil || !rep.Completed {
		t.Fatalf("PreemptNode: %+v, %v", rep, err)
	}
	if _, err := sys.AddNode(ctx, victim); err != nil {
		t.Fatal(err)
	}

	sys.deadlineKill(victim, armed) // the old machine's deadline, landing late
	if !slices.Contains(sys.AliveNodes(), victim) {
		t.Fatal("the old machine's preemption deadline killed its replacement")
	}
	got, rep, err := sys.Load(ctx)
	if err != nil || len(rep.MissingChunks) != 0 {
		t.Fatalf("Load after rejoin: %+v, %v", rep, err)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Fatalf("rank %d: recovered dict differs", rank)
		}
	}

	// A deadline of the current generation does land.
	sys.timerMu.Lock()
	armed = sys.killGen[victim]
	sys.timerMu.Unlock()
	sys.deadlineKill(victim, armed)
	if slices.Contains(sys.AliveNodes(), victim) {
		t.Fatal("a live deadline did not kill the node")
	}
}
