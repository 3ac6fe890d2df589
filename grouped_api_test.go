package eccheck_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"eccheck"
)

// groupedSystem is 8 machines as two (2+2) code groups — nodes 0-3 and 4-7 —
// on the one System type.
func groupedSystem(t *testing.T) (*eccheck.System, []*eccheck.StateDict) {
	t.Helper()
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:              8,
		GPUsPerNode:        1,
		TPDegree:           1,
		PPStages:           8,
		K:                  2,
		M:                  2,
		BufferSize:         64 << 10,
		Incremental:        true,
		RemotePersistEvery: 1,
		RemoteBandwidth:    1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	opt := eccheck.NewBuildOptions()
	opt.Scale = 64
	opt.Seed = 21
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dicts
}

func wantDicts(t *testing.T, want, got []*eccheck.StateDict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d dicts, want %d", len(got), len(want))
	}
	for rank := range want {
		if !want[rank].Equal(got[rank]) {
			t.Errorf("rank %d differs", rank)
		}
	}
}

// loseNodes fails and replaces the given machines.
func loseNodes(t *testing.T, sys *eccheck.System, nodes ...int) {
	t.Helper()
	for _, node := range nodes {
		if err := sys.FailNode(node); err != nil {
			t.Fatal(err)
		}
		if err := sys.ReplaceNode(node); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupedPublicAPI: a grouped layout is selected by Nodes = G·(K+M) and
// nothing else; m failures in every group at once recover byte-identical, and
// m+1 in one group fail the recovery with an error naming the group.
func TestGroupedPublicAPI(t *testing.T) {
	sys, dicts := groupedSystem(t)
	ctx := context.Background()
	if data, parity := sys.DataNodes(), sys.ParityNodes(); len(data) != 4 || len(parity) != 4 {
		t.Fatalf("data nodes %v, parity nodes %v; want 2 of each in both groups", data, parity)
	}
	for i, node := range sys.DataNodes() {
		if node/4 != i/2 {
			t.Errorf("data node %d listed for group %d", node, i/2)
		}
	}
	rep, err := sys.Save(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || len(rep.NodePhases) != 8 {
		t.Errorf("save report: version %d, %d node partitions", rep.Version, len(rep.NodePhases))
	}
	if ft := sys.FaultTolerance(); ft != 2 {
		t.Errorf("fault tolerance %d, want m=2", ft)
	}

	// Two failures per group simultaneously (four cluster-wide).
	loseNodes(t, sys, 0, 1, 4, 6)
	got, lrep, err := sys.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 1 || len(lrep.MissingChunks) != 4 {
		t.Errorf("recovered version %d, rebuilt chunks %v; want v1 and four chunks", lrep.Version, lrep.MissingChunks)
	}
	wantDicts(t, dicts, got)
	if vr, err := sys.VerifyIntegrity(); err != nil || len(vr.CorruptSegments) != 0 || vr.SegmentsChecked != 4 {
		t.Errorf("verify after recovery: %+v, %v", vr, err)
	}

	// Three in one group: the other group's health does not help.
	loseNodes(t, sys, 4, 5, 6)
	if _, _, err := sys.Load(ctx); err == nil || !strings.Contains(err.Error(), "group 1") {
		t.Fatalf("3 failures in group 1 with m=2: got %v, want an error naming the group", err)
	}
	// The remote tier still has it.
	got, err = sys.LoadFromRemote(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDicts(t, dicts, got)
}

// TestGroupedEveryOperation drives every public System operation on the
// 2-group layout.
func TestGroupedEveryOperation(t *testing.T) {
	sys, dicts := groupedSystem(t)
	ctx := context.Background()

	// SaveAsync, then a delta on top of it.
	h, err := sys.SaveAsync(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	touch := func(rank int) {
		ts := dicts[rank].TensorEntries()[0].Tensor
		ts.Data()[0] ^= 0xff
	}
	touch(1) // group 0
	touch(6) // group 1
	irep, err := sys.SaveIncremental(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}
	if irep.Full || irep.ChangedBuffers == 0 || irep.ChangedBuffers >= irep.TotalBuffers {
		t.Errorf("delta save: %+v; want a sparse delta", irep)
	}
	if rep := sys.Health(); rep.Level != eccheck.HealthOK || rep.Margin != 2 {
		t.Errorf("health %s margin %d, want ok 2", rep.Level, rep.Margin)
	}

	// LoadPartial across both groups with a data owner dead in each.
	data := sys.DataNodes()
	for _, node := range []int{data[0], data[2]} {
		if err := sys.FailNode(node); err != nil {
			t.Fatal(err)
		}
	}
	if rep := sys.Health(); rep.Margin != 1 {
		t.Errorf("one machine down in each group: margin %d, want 1 (per-group m)", rep.Margin)
	}
	part, prep, err := sys.LoadPartial(ctx, []int{0, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{0, 3, 5} {
		if !dicts[rank].Equal(part[rank]) {
			t.Errorf("partial restore: rank %d differs", rank)
		}
	}
	if prep.Workflow != "partial-decode" {
		t.Errorf("partial workflow %q with data owners dead, want partial-decode", prep.Workflow)
	}

	// PrefetchNode warms one replacement; Load repairs the other.
	for _, node := range []int{data[0], data[2]} {
		if err := sys.ReplaceNode(node); err != nil {
			t.Fatal(err)
		}
	}
	pf, err := sys.PrefetchNode(ctx, data[2])
	if err != nil {
		t.Fatal(err)
	}
	if pf.AlreadyIntact || pf.Segments != 2 || pf.SmallsCopied != 2*4 {
		t.Errorf("prefetch report %+v; want 2 segments and the group's 4 ranks' small components", pf)
	}
	got, lrep, err := sys.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lrep.MissingChunks) != 1 || lrep.MissingChunks[0] >= 4 {
		t.Errorf("load rebuilt %v; want group 0's one lost chunk only", lrep.MissingChunks)
	}
	wantDicts(t, dicts, got)
	if ft := sys.FaultTolerance(); ft != 2 {
		t.Errorf("fault tolerance %d after repair, want 2", ft)
	}

	// Membership: a drained leave in group 1 parks its blobs inside the group
	// and comes back with zero rebuilds; a crash leave of a data slot in
	// group 0 is rebuilt in place by the join, inside group 0.
	drain, err := sys.RemoveNode(ctx, 5)
	if err != nil || !drain.Completed {
		t.Fatalf("RemoveNode: %+v, %v", drain, err)
	}
	if drain.Custodian/4 != 1 {
		t.Errorf("node 5's custodian is %d, outside its group", drain.Custodian)
	}
	join, err := sys.AddNode(ctx, 5)
	if err != nil || !join.Restored {
		t.Fatalf("AddNode after drain: %+v, %v", join, err)
	}
	if rep, err := sys.PreemptNode(ctx, data[1], 0); err != nil || rep.Completed {
		t.Fatalf("PreemptNode without notice: %+v, %v", rep, err)
	}
	before := sys.DataNodes()
	join, err = sys.AddNode(ctx, data[1])
	if err != nil || join.Rebuilt == nil || join.Rebuilt.Segments == 0 {
		t.Fatalf("AddNode after crash leave: %+v, %v", join, err)
	}
	if after := sys.DataNodes(); !reflect.DeepEqual(before, after) {
		t.Errorf("a join moved the data nodes: %v -> %v", before, after)
	}
	if ft := sys.FaultTolerance(); ft != 2 {
		t.Errorf("fault tolerance %d when AddNode returned, want 2", ft)
	}
	got, lrep, err = sys.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lrep.MissingChunks) != 0 {
		t.Errorf("load after the join rebuilt %v, want nothing", lrep.MissingChunks)
	}
	wantDicts(t, dicts, got)
	if vr, err := sys.VerifyIntegrity(); err != nil || len(vr.CorruptSegments) != 0 {
		t.Errorf("verify: %+v, %v", vr, err)
	}
	// And the layout keeps saving.
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
}

func TestInitializeGroupedValidation(t *testing.T) {
	if _, err := eccheck.Initialize(eccheck.Config{
		Nodes: 8, GPUsPerNode: 1, TPDegree: 1, PPStages: 8, K: 2, M: 1,
	}); err == nil {
		t.Error("group size not dividing nodes: want error")
	}
	if _, err := eccheck.Initialize(eccheck.Config{
		Nodes: 8, GPUsPerNode: 1, TPDegree: 1, PPStages: 8, K: 4, M: 0,
	}); err == nil {
		t.Error("m = 0: want error")
	}
}
