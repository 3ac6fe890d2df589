package core

import (
	"context"
	"strings"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/parallel"
	"eccheck/internal/transport"
)

// groupedRig is an 8-node cluster laid out as two 4-node code groups with
// k = m = 2 each: the one Checkpointer, selected by the node count alone.
func groupedRig(t *testing.T) *testRig {
	t.Helper()
	return newRig(t, 8, 2, 2, 2, noRemote)
}

func TestGroupedLayoutValidation(t *testing.T) {
	topo, err := parallel.NewTopology(8, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	clus, err := cluster.New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topo: nil, K: 2, M: 2}, net, clus, nil); err == nil {
		t.Error("nil topo: want error")
	}
	if _, err := New(Config{Topo: topo, K: 1, M: 0}, net, clus, nil); err == nil {
		t.Error("group size 1: want error")
	}
	if _, err := New(Config{Topo: topo, K: 2, M: 1}, net, clus, nil); err == nil {
		t.Error("group size not dividing nodes: want error")
	}
	if _, err := New(Config{Topo: topo, K: 3, M: 1}, net, clus, nil); err == nil {
		t.Error("k not dividing a group's workers: want error")
	}
}

func TestGroupedSaveLoadNoFailure(t *testing.T) {
	rig := groupedRig(t)
	ctx := context.Background()
	rep, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || len(rep.NodePhases) != 8 || rep.SmallBytes == 0 {
		t.Errorf("report = %+v", rep)
	}
	// A node holds its own group's small components and nothing of the
	// other's.
	for _, key := range rig.clus.Keys(0) {
		if key == rig.ckpt.lay.keys.small[8] {
			t.Errorf("node 0 (group 0) holds %q of group 1", key)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 1 || lrep.Workflow != "replacement" || len(lrep.MissingChunks) != 0 {
		t.Errorf("load report = %+v", lrep)
	}
	dictsEqual(t, rig.dicts, got)
}

// Grouped tolerance: m failures in EVERY group simultaneously are
// survivable — 2·m total across the cluster, which a single flat (k, m)
// instance could not promise.
func TestGroupedSurvivesMFailuresPerGroup(t *testing.T) {
	rig := groupedRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	if got := rig.ckpt.DegradedSlots(); got != 0 {
		t.Fatalf("DegradedSlots = %d on a healthy cluster", got)
	}
	// Fail two nodes in each group (4 failures cluster-wide).
	for _, node := range []int{0, 2, 5, 7} {
		loseNode(t, rig, node)
	}
	if got := rig.ckpt.DegradedSlots(); got != 2 {
		t.Errorf("DegradedSlots = %d with two lost in each group, want 2 (the worst group's, not the sum)", got)
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lrep.MissingChunks) != 4 {
		t.Errorf("rebuilt chunks %v, want four", lrep.MissingChunks)
	}
	for i, id := range lrep.MissingChunks {
		if id/4 != i/2 {
			t.Errorf("rebuilt chunk ids %v: want two in each group, as group·(k+m)+chunk", lrep.MissingChunks)
		}
	}
	dictsEqual(t, rig.dicts, got)
	verifyClean(t, rig)
	if got := rig.ckpt.DegradedSlots(); got != 0 {
		t.Errorf("DegradedSlots = %d after the repair", got)
	}
}

// More than m failures inside one group sinks the recovery even though the
// cluster-wide failure count is small: the grouping trade-off.
func TestGroupedGroupOverload(t *testing.T) {
	rig := groupedRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{4, 5, 6} { // three failures in group 1
		loseNode(t, rig, node)
	}
	_, _, err := rig.ckpt.Load(ctx)
	if err == nil {
		t.Fatal("3 failures in one group with m=2 must not be recoverable")
	}
	if !strings.Contains(err.Error(), "group 1") {
		t.Errorf("error %q does not name the group", err)
	}
	// A partial restore that only touches the healthy group still serves.
	part, _, err := rig.ckpt.LoadPartial(ctx, []int{0, 7})
	if err != nil {
		t.Fatalf("LoadPartial of group 0's ranks with group 1 lost: %v", err)
	}
	for rank, sd := range part {
		if !rig.dicts[rank].Equal(sd) {
			t.Errorf("rank %d differs", rank)
		}
	}
	if _, _, err := rig.ckpt.LoadPartial(ctx, []int{0, 8}); err == nil {
		t.Error("LoadPartial of a rank in the lost group: want error")
	}
}

func TestGroupedBookkeeping(t *testing.T) {
	plan := groupedRig(t).ckpt.Plan()
	if plan.Groups() != 2 {
		t.Errorf("Groups = %d", plan.Groups())
	}
	if plan.GroupOfNode(3) != 0 || plan.GroupOfNode(4) != 1 {
		t.Error("GroupOfNode wrong")
	}
	if lo, hi := plan.RankRange(1); lo != 8 || hi != 16 {
		t.Errorf("group 1 ranks [%d, %d)", lo, hi)
	}
	if lo, hi := plan.NodeRange(1); lo != 4 || hi != 8 {
		t.Errorf("group 1 nodes [%d, %d)", lo, hi)
	}
}

func TestGroupedSaveValidation(t *testing.T) {
	rig := groupedRig(t)
	if _, err := rig.ckpt.Save(context.Background(), rig.dicts[:8]); err == nil {
		t.Error("one group's dicts only: want error")
	}
	// A dead machine in one group fails the whole round: no partial commit.
	if err := rig.clus.Fail(6); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.Save(context.Background(), rig.dicts); err == nil {
		t.Error("save with a machine of group 1 dead: want error")
	}
	if v := rig.ckpt.Version(); v != 0 {
		t.Errorf("version %d after a refused round", v)
	}
}

func TestGroupedVerifyIntegrity(t *testing.T) {
	rig := groupedRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	span := rig.ckpt.Plan().Span()
	rep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptSegments) != 0 || rep.SegmentsChecked != 2*span {
		t.Fatalf("clean checkpoint: %+v; want %d segments checked", rep, 2*span)
	}
	// Corrupt one byte in group 1's territory (node 4's chunk) and re-scan.
	key := ""
	for _, k := range rig.clus.Keys(4) {
		if strings.HasPrefix(k, "chunk") {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("node 4 stores no chunk segment")
	}
	if err := rig.clus.Corrupt(4, key, 7); err != nil {
		t.Fatal(err)
	}
	rep, err = rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptSegments) != 1 {
		t.Fatalf("corrupt segments %v, want exactly the one", rep.CorruptSegments)
	}
	if id := rep.CorruptSegments[0]; id/span != 1 {
		t.Errorf("corrupt segment %d is not in group 1 (ids are group·%d+segment)", id, span)
	}
}
