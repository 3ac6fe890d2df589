package core

import (
	"context"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/remotestore"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// testRig bundles a small but fully wired functional deployment: the paper
// testbed shape (4 nodes, TP inside nodes, PP across) at reduced scale.
type testRig struct {
	topo   *parallel.Topology
	net    transport.Network
	clus   *cluster.Cluster
	remote *remotestore.Store
	ckpt   *Checkpointer
	dicts  []*statedict.StateDict
}

func newRig(t testing.TB, nodes, gpus, k, m int, opts ...func(*Config)) *testRig {
	t.Helper()
	net, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return newRigOn(t, net, nil, nodes, gpus, k, m, opts...)
}

// newRigOn is newRig over a given network (a fault injector, a test
// transport) and, when dicts is non-nil, over given state dicts instead of
// the default model's.
func newRigOn(t testing.TB, net transport.Network, dicts []*statedict.StateDict, nodes, gpus, k, m int, opts ...func(*Config)) *testRig {
	t.Helper()
	topo, err := parallel.NewTopology(nodes, gpus, gpus, nodes)
	if err != nil {
		t.Fatal(err)
	}
	clus, err := cluster.New(nodes, gpus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:               topo,
		K:                  k,
		M:                  m,
		BufferSize:         64 << 10, // small buffers so the pipeline has many slices
		RemotePersistEvery: 2,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	remote := rigRemote(t, &cfg)
	ckpt, err := New(cfg, net, clus, remote)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ckpt.Close()
		_ = net.Close()
	})

	if dicts == nil {
		buildOpt := model.NewBuildOptions()
		buildOpt.Scale = 32
		buildOpt.Seed = 1234
		buildOpt.Iteration = 77
		if dicts, err = model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt); err != nil {
			t.Fatal(err)
		}
	}
	return &testRig{topo: topo, net: net, clus: clus, remote: remote, ckpt: ckpt, dicts: dicts}
}

// noRemote builds the rig's engine without a remote store, the engine's
// one way to turn remote persistence off. It marks the config with a
// negative RemotePersistEvery, which New rejects and rigRemote turns into
// a nil remote.
func noRemote(c *Config) { c.RemotePersistEvery = -1 }

// rigRemote is a rig's remote store for cfg: nil under noRemote.
func rigRemote(t testing.TB, cfg *Config) *remotestore.Store {
	t.Helper()
	if cfg.RemotePersistEvery < 0 {
		cfg.RemotePersistEvery = 0
		return nil
	}
	remote, err := remotestore.New(5e9 / 8)
	if err != nil {
		t.Fatal(err)
	}
	return remote
}

func dictsEqual(t *testing.T, want, got []*statedict.StateDict) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("dict count %d != %d", len(got), len(want))
	}
	for rank := range want {
		if got[rank] == nil {
			t.Fatalf("rank %d: nil recovered dict", rank)
		}
		if !want[rank].Equal(got[rank]) {
			t.Errorf("rank %d: recovered dict differs from original", rank)
		}
	}
}

func TestNewValidation(t *testing.T) {
	topo, err := parallel.NewTopology(4, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	clus, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topo: nil, K: 2, M: 2}, net, clus, nil); err == nil {
		t.Error("nil topo: want error")
	}
	if _, err := New(Config{Topo: topo, K: 2, M: 2}, nil, clus, nil); err == nil {
		t.Error("nil network: want error")
	}
	if _, err := New(Config{Topo: topo, K: 2, M: 2}, net, nil, nil); err == nil {
		t.Error("nil cluster: want error")
	}
	if _, err := New(Config{Topo: topo, K: 1, M: 2}, net, clus, nil); err == nil {
		t.Error("k+m != nodes: want error")
	}
	smallClus, err := cluster.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topo: topo, K: 2, M: 2}, net, smallClus, nil); err == nil {
		t.Error("cluster/topology mismatch: want error")
	}
	if _, err := New(Config{Topo: topo, K: 2, M: 2, BufferSize: -1}, net, clus, nil); err == nil {
		t.Error("negative buffer: want error")
	}
	if _, err := New(Config{Topo: topo, K: 2, M: 2, BufferSize: 1000}, net, clus, nil); err == nil {
		t.Error("unaligned buffer: want error")
	}
	// A nil remote is the one off switch; a negative interval is not one.
	if _, err := New(Config{Topo: topo, K: 2, M: 2, RemotePersistEvery: -1}, net, clus, nil); err == nil {
		t.Error("negative remote persist interval: want error")
	}
}

func TestSaveValidation(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts[:3]); err == nil {
		t.Error("wrong dict count: want error")
	}
	bad := append([]*statedict.StateDict(nil), rig.dicts...)
	bad[2] = nil
	if _, err := rig.ckpt.Save(ctx, bad); err == nil {
		t.Error("nil dict: want error")
	}
	if err := rig.clus.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err == nil {
		t.Error("failed node: want error")
	}
}

func TestSaveThenLoadNoFailure(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	rep, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 {
		t.Errorf("version = %d", rep.Version)
	}
	if rep.PacketBytes <= 0 || rep.PacketBytes%64 != 0 {
		t.Errorf("packet bytes = %d", rep.PacketBytes)
	}
	if rep.SmallBytes <= 0 {
		t.Errorf("small bytes = %d", rep.SmallBytes)
	}
	// Small components must be orders of magnitude below the payload.
	if rep.SmallBytes*10 > rep.PacketBytes*rig.topo.World() {
		t.Errorf("small bytes %d not small vs %d packets of %d",
			rep.SmallBytes, rig.topo.World(), rep.PacketBytes)
	}

	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "replacement" || len(lrep.MissingChunks) != 0 {
		t.Errorf("no-failure load report = %+v", lrep)
	}
	dictsEqual(t, rig.dicts, got)
}

// The paper's Fig. 13a scenario: parity-node failures only; recovery is the
// replacement workflow and must restore the parity chunks.
func TestRecoveryParityNodeFailures(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	plan := rig.ckpt.Plan()
	// Fail both parity nodes: still recoverable (m = 2).
	for _, node := range plan.ParityNodes {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := rig.ckpt.Load(ctx); err == nil {
		t.Fatal("load with failed nodes should demand replacement first")
	}
	for _, node := range plan.ParityNodes {
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "replacement" {
		t.Errorf("workflow = %q, want replacement", lrep.Workflow)
	}
	if len(lrep.MissingChunks) != 2 {
		t.Errorf("missing chunks = %v", lrep.MissingChunks)
	}
	dictsEqual(t, rig.dicts, got)

	// Fault tolerance restored: the replaced nodes hold their parity
	// chunks again, so a subsequent data-node failure is survivable.
	span := rig.topo.World() / 2
	for i, node := range plan.ParityNodes {
		for s := 0; s < span; s++ {
			if !rig.clus.Has(node, keySegment(2+i, s)) {
				t.Errorf("parity node %d missing restored segment %d", node, s)
			}
		}
	}
}

// The paper's Fig. 13b scenario: a data node is among the failures, so
// recovery must decode — exactly the case replication-based base3 cannot
// survive when its whole group is gone.
func TestRecoveryDataNodeFailuresDecode(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	plan := rig.ckpt.Plan()
	// Fail one data node and one parity node (two concurrent failures).
	victims := []int{plan.DataNodes[0], plan.ParityNodes[1]}
	for _, node := range victims {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "decode" {
		t.Errorf("workflow = %q, want decode", lrep.Workflow)
	}
	dictsEqual(t, rig.dicts, got)
}

// All data nodes fail concurrently: the hardest recoverable case for
// k = m = 2 — every original chunk must come out of the parity chunks.
func TestRecoveryAllDataNodesFail(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	plan := rig.ckpt.Plan()
	for _, node := range plan.DataNodes {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "decode" {
		t.Errorf("workflow = %q", lrep.Workflow)
	}
	dictsEqual(t, rig.dicts, got)
}

func TestTooManyFailuresFallsBackToRemote(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	// Save twice so version 2 is the remote-persisted one
	// (RemotePersistEvery = 2).
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	rep, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RemotePersisted {
		t.Fatal("second save should persist remotely")
	}
	for _, node := range []int{0, 1, 2} { // 3 > m failures
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := rig.ckpt.Load(ctx); err == nil {
		t.Fatal("3 concurrent failures with m=2 must not be recoverable in-memory")
	}
	got, err := rig.ckpt.LoadFromRemote(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, rig.dicts, got)
}

func TestLoadRecoversLatestVersion(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	// Mutate the training state and save again.
	newer := make([]*statedict.StateDict, len(rig.dicts))
	for rank, sd := range rig.dicts {
		newer[rank] = sd.Clone()
		newer[rank].SetMeta("iteration", statedict.Int(78))
		entries := newer[rank].TensorEntries()
		entries[0].Tensor.Data()[0] ^= 0x5A
	}
	if _, err := rig.ckpt.Save(ctx, newer); err != nil {
		t.Fatal(err)
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 2 {
		t.Errorf("recovered version %d, want 2", lrep.Version)
	}
	dictsEqual(t, newer, got)
}

// A full life cycle: save, fail, recover, keep training, save again, fail
// differently, recover again.
func TestRepeatedFailureRecoveryCycles(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	plan := rig.ckpt.Plan()
	current := rig.dicts

	for cycle, victim := range []int{plan.ParityNodes[0], plan.DataNodes[1], plan.DataNodes[0]} {
		if _, err := rig.ckpt.Save(ctx, current); err != nil {
			t.Fatalf("cycle %d save: %v", cycle, err)
		}
		if err := rig.clus.Fail(victim); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := rig.clus.Replace(victim); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		got, _, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatalf("cycle %d load: %v", cycle, err)
		}
		dictsEqual(t, current, got)
		// "Train" a step: mutate one tensor per rank.
		next := make([]*statedict.StateDict, len(got))
		for rank, sd := range got {
			next[rank] = sd.Clone()
			entries := next[rank].TensorEntries()
			entries[cycle%len(entries)].Tensor.Data()[cycle] ^= 0xFF
		}
		current = next
	}
}

// The exact Fig. 6/7 shape: four nodes, one worker each, k = m = 2.
func TestFig6SingleWorkerNodes(t *testing.T) {
	rig := newRig(t, 4, 1, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	// Fig. 7: nodes 1 and 2 fail.
	for _, node := range []int{1, 2} {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, rig.dicts, got)
	if lrep.Workflow != "decode" {
		t.Errorf("workflow = %q (node 2 is a data node in this plan)", lrep.Workflow)
	}
}

// Redundancy accounting: after a save, each node stores roughly one chunk —
// span packets — matching erasure coding's redundancy, not replication's.
func TestMemoryRedundancyIsOneChunkPerNode(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	rep, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	span := rig.topo.World() / 2
	chunkBytes := span * rep.PacketBytes
	for node := 0; node < 4; node++ {
		got := rig.clus.MemoryBytes(node)
		// Allow the small components and manifest on top of the chunk.
		if got < chunkBytes || got > chunkBytes+chunkBytes/2 {
			t.Errorf("node %d stores %d bytes, want ≈ one chunk (%d)", node, got, chunkBytes)
		}
	}
}

func TestSaveOverTCPTransport(t *testing.T) {
	topo, err := parallel.NewTopology(4, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewTCPLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	clus, err := cluster.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := New(Config{Topo: topo, K: 2, M: 2, BufferSize: 32 << 10, IncrementalCache: true}, net, clus, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()

	buildOpt := model.NewBuildOptions()
	buildOpt.Scale = 64
	buildOpt.Seed = 5
	base, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ckpt.Save(ctx, base); err != nil {
		t.Fatal(err)
	}
	// A delta round sends its data windows through the TCP transport too.
	dicts := mutateSomeTensors(base, []int{0, 1, 2, 3}, 101)
	if rep, err := ckpt.SaveIncremental(ctx, dicts); err != nil || rep.Full {
		t.Fatalf("delta round over TCP: %+v, %v", rep, err)
	}
	if err := clus.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := clus.Replace(0); err != nil {
		t.Fatal(err)
	}
	got, _, err := ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, dicts, got)
}

func TestLoadFromRemoteValidation(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.LoadFromRemote(context.Background(), 0); err == nil {
		t.Error("no persisted checkpoint: want error")
	}
	topo, err := parallel.NewTopology(4, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	clus, err := cluster.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New(Config{Topo: topo, K: 2, M: 2}, net, clus, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.LoadFromRemote(context.Background(), 0); err == nil {
		t.Error("no remote store: want error")
	}
}

// The engine is parallelism-agnostic: with data parallelism in the
// topology (here TP=2, PP=2, DP=2 — the sharded-replica layout FSDP
// produces), every worker still checkpoints its own distinct shard and
// recovery is byte-exact.
func TestSaveLoadWithDataParallelReplicas(t *testing.T) {
	topo, err := parallel.NewTopology(4, 2, 2, 2) // DP = 2
	if err != nil {
		t.Fatal(err)
	}
	if topo.DPDegree() != 2 {
		t.Fatalf("DP = %d", topo.DPDegree())
	}
	net, err := transport.NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	clus, err := cluster.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := New(Config{Topo: topo, K: 2, M: 2, BufferSize: 64 << 10}, net, clus, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()

	opt := model.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 88
	dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	// FSDP-style: replicas hold state that differs byte-wise (sharded
	// optimizer state); the builder already differentiates by rank.
	if dicts[0].Equal(dicts[4]) {
		t.Fatal("replica shards should differ byte-wise")
	}
	ctx := context.Background()
	if _, err := ckpt.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	for _, node := range ckpt.Plan().DataNodes {
		if err := clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, dicts, got)
}
