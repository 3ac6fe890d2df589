package baseline

import (
	"context"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
	"eccheck/internal/testbed"
)

func testSetup(t *testing.T) (*parallel.Topology, []*statedict.StateDict, *cluster.Cluster) {
	t.Helper()
	topo, err := parallel.NewTopology(4, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := model.NewBuildOptions()
	opt.Scale = 64
	opt.Seed = 9
	dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	clus, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return topo, dicts, clus
}

func checkRoundTrip(t *testing.T, ck *Base3, dicts []*statedict.StateDict) {
	t.Helper()
	ctx := context.Background()
	if err := ck.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	got, err := ck.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Errorf("rank %d: recovered dict differs", rank)
		}
	}
}

func TestBase3RoundTrip(t *testing.T) {
	topo, dicts, clus := testSetup(t)
	b, err := NewBase3(topo, clus, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, b, dicts)
}

// GEMINI's grouping survives one failure per group but not a whole group —
// the exact weakness Fig. 13b and Fig. 15 demonstrate.
func TestBase3FaultToleranceBoundary(t *testing.T) {
	topo, dicts, clus := testSetup(t)
	b, err := NewBase3(topo, clus, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}

	// One failure in each group: recoverable (best case for base3).
	for _, node := range []int{0, 2} {
		if err := clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Load(ctx)
	if err != nil {
		t.Fatalf("one failure per group must be recoverable: %v", err)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Errorf("rank %d differs after recovery", rank)
		}
	}

	// Now fail the whole group {0, 1}: unrecoverable.
	for _, node := range []int{0, 1} {
		if err := clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Load(ctx); err == nil {
		t.Fatal("whole-group failure must be unrecoverable for replication")
	}
}

func TestBase3GroupOf(t *testing.T) {
	topo, _, clus := testSetup(t)
	b, err := NewBase3(topo, clus, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := b.GroupOf(3)
	if len(g) != 2 || g[0] != 2 || g[1] != 3 {
		t.Errorf("GroupOf(3) = %v", g)
	}
}

func TestConstructorValidation(t *testing.T) {
	topo, _, clus := testSetup(t)
	if _, err := NewBase3(topo, clus, 1); err == nil {
		t.Error("base3 group size 1: want error")
	}
	if _, err := NewBase3(topo, clus, 3); err == nil {
		t.Error("base3 group size not dividing nodes: want error")
	}
	if _, err := NewBase3(topo, nil, 2); err == nil {
		t.Error("base3 nil cluster: want error")
	}
}

func TestLoadBeforeSaveErrors(t *testing.T) {
	topo, _, clus := testSetup(t)
	ctx := context.Background()
	b3, _ := NewBase3(topo, clus, 2)
	if _, err := b3.Load(ctx); err == nil {
		t.Error("base3 load before save: want error")
	}
}

func timingInput() TimingInput {
	return TimingInput{
		Resources:   testbed.Paper(),
		ShardBytes:  1 << 30, // 1 GiB per worker
		World:       16,
		GPUsPerNode: 4,
	}
}

func TestTimingModelsOrdering(t *testing.T) {
	in := timingInput()
	t1, err := Base1Time(in)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Base2Time(in)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Base3Time(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 10's ordering: in-memory checkpointing is far faster than
	// remote-storage checkpointing; base2's stall is far below base1's.
	if t3.Total*5 > t1.Total {
		t.Errorf("base3 total %v not ≫ faster than base1 %v", t3.Total, t1.Total)
	}
	if t2.Stall*10 > t1.Stall {
		t.Errorf("base2 stall %v not ≪ base1 stall %v", t2.Stall, t1.Stall)
	}
	// base2 does not reduce the full checkpoint latency, only the stall.
	if t2.Total < t1.Total {
		t.Errorf("base2 total %v should not beat base1 total %v", t2.Total, t1.Total)
	}
}

func TestRecoveryTimingOrdering(t *testing.T) {
	in := timingInput()
	remote, err := Base1RecoverTime(in)
	if err != nil {
		t.Fatal(err)
	}
	inmem, err := Base3RecoverTime(in)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 13: in-memory recovery is an order of magnitude faster.
	if inmem.Resume*10 > remote.Resume {
		t.Errorf("base3 recovery %v not ≫ faster than base1 %v", inmem.Resume, remote.Resume)
	}
}

func TestTimingValidation(t *testing.T) {
	in := timingInput()
	in.ShardBytes = 0
	if _, err := Base1Time(in); err == nil {
		t.Error("zero shard: want error")
	}
	in = timingInput()
	in.World = 0
	if _, err := Base2Time(in); err == nil {
		t.Error("zero world: want error")
	}
	in = timingInput()
	if _, err := Base3Time(in, 1); err == nil {
		t.Error("group size 1: want error")
	}
	bad := timingInput()
	bad.Resources.RemoteRate = 0
	if _, err := Base1RecoverTime(bad); err == nil {
		t.Error("zero remote rate: want error")
	}
	in = timingInput()
	in.GPUsPerNode = 0
	if _, err := Base3RecoverTime(in); err == nil {
		t.Error("zero gpus: want error")
	}
}
