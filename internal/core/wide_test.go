package core

import (
	"context"
	"testing"

	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
	"eccheck/internal/transport"
)

// wideRig is a cluster of one-worker machines over state dicts of a single
// perRank-byte tensor each: layouts wider than any model in the zoo shards
// to, where the payload only has to be distinct per rank.
func wideRig(t *testing.T, nodes, k, m, perRank int, opts ...func(*Config)) *testRig {
	t.Helper()
	dicts := make([]*statedict.StateDict, nodes)
	for rank := range dicts {
		tn, err := tensor.New(tensor.Float32, perRank/4)
		if err != nil {
			t.Fatal(err)
		}
		tn.FillPattern(uint64(rank + 1))
		sd := statedict.New()
		sd.SetMeta("iteration", statedict.Int(1))
		if err := sd.SetTensor("payload", tn); err != nil {
			t.Fatal(err)
		}
		dicts[rank] = sd
	}
	net, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatal(err)
	}
	defaults := func(c *Config) { c.BufferSize = 4 << 10 }
	return newRigOn(t, net, dicts, nodes, 1, k, m, append([]func(*Config){defaults, noRemote}, opts...)...)
}

// loseDataNodes fails and replaces every data machine: m per code group when
// k = m, the worst loss the layout survives.
func loseDataNodes(t *testing.T, rig *testRig) {
	t.Helper()
	for _, node := range rig.ckpt.Plan().DataNodes {
		loseNode(t, rig, node)
	}
}

// TestMultiLevelReductionTree runs the engine over a reduction tree with an
// interior level: with 10 source machines per reduction and reduceFanIn 8,
// a tree child folds its own child's partials before forwarding, so a delta
// round's per-stream ship-set is the union over a real subtree.
func TestMultiLevelReductionTree(t *testing.T) {
	rig := wideRig(t, 20, 10, 10, 32<<10, func(c *Config) { c.IncrementalCache = true })
	deepest := 0
	for _, route := range rig.ckpt.lay.routes {
		deepest = max(deepest, route.tree.Depth())
	}
	if deepest < 2 {
		t.Fatalf("deepest reduction tree has depth %d: the layout never leaves the flat tree", deepest)
	}

	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	next := mutateSomeTensors(rig.dicts, []int{1, 8, 17}, 2)
	rep, err := rig.ckpt.SaveIncremental(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full || rep.ChangedBuffers == 0 || rep.ChangedBuffers >= rep.TotalBuffers {
		t.Fatalf("delta round: full=%v, changed %d of %d buffers; want a sparse update",
			rep.Full, rep.ChangedBuffers, rep.TotalBuffers)
	}
	verifyClean(t, rig)

	loseDataNodes(t, rig)
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 2 {
		t.Errorf("recovered version %d, want 2", lrep.Version)
	}
	dictsEqual(t, next, got)
}

// TestWideLayoutsRecoverBytes saves on 64 machines, as one flat 32+32 code
// and as eight 4+4 groups, loses m machines in every group and requires the
// recovered state to be byte-identical.
func TestWideLayoutsRecoverBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("64-machine rounds")
	}
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"flat 32+32", 32, 32},
		{"8 x (4+4)", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := wideRig(t, 64, tc.k, tc.m, 16<<10)
			ctx := context.Background()
			if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
				t.Fatal(err)
			}
			if got, want := rig.ckpt.Plan().Groups(), 64/(tc.k+tc.m); got != want {
				t.Fatalf("layout has %d code groups, want %d", got, want)
			}
			loseDataNodes(t, rig)
			got, lrep, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(lrep.MissingChunks) != 32 {
				t.Errorf("rebuilt %d chunks, want 32 (m in every group)", len(lrep.MissingChunks))
			}
			dictsEqual(t, rig.dicts, got)
			verifyClean(t, rig)
		})
	}
}
