package eccheck_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"eccheck"
)

func smallSystem(t *testing.T) (*eccheck.System, []*eccheck.StateDict) {
	t.Helper()
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:       4,
		GPUsPerNode: 2,
		TPDegree:    2,
		PPStages:    4,
		K:           2,
		M:           2,
		BufferSize:  64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	zoo := eccheck.ModelZoo()
	if len(zoo) != 9 {
		t.Fatalf("model zoo has %d configs", len(zoo))
	}
	opt := eccheck.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 42
	dicts, err := eccheck.BuildClusterStateDicts(zoo[0], sys.Topology(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dicts
}

func TestPublicAPISaveLoadRecoverCycle(t *testing.T) {
	sys, dicts := smallSystem(t)
	ctx := context.Background()

	rep, err := sys.Save(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || sys.Version() != 1 {
		t.Errorf("version = %d/%d", rep.Version, sys.Version())
	}
	if sys.FaultTolerance() != 2 {
		t.Errorf("FaultTolerance = %d", sys.FaultTolerance())
	}
	if len(sys.DataNodes()) != 2 || len(sys.ParityNodes()) != 2 {
		t.Errorf("nodes: data %v parity %v", sys.DataNodes(), sys.ParityNodes())
	}

	// Kill two machines (the tolerance bound), replace, recover.
	victims := []int{sys.DataNodes()[0], sys.ParityNodes()[0]}
	for _, v := range victims {
		if err := sys.FailNode(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sys.AliveNodes()); got != 2 {
		t.Errorf("%d nodes alive", got)
	}
	for _, v := range victims {
		if err := sys.ReplaceNode(v); err != nil {
			t.Fatal(err)
		}
	}
	got, lrep, err := sys.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Workflow != "decode" {
		t.Errorf("workflow = %q", lrep.Workflow)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Errorf("rank %d: recovered dict differs", rank)
		}
	}
	// Redundancy is restored on the replaced machines.
	for _, v := range victims {
		if sys.NodeMemoryBytes(v) == 0 {
			t.Errorf("node %d holds no chunk after recovery", v)
		}
	}
}

func TestPublicAPIStateDictConstruction(t *testing.T) {
	sd := eccheck.NewStateDict()
	sd.SetMeta("iteration", eccheck.IntValue(5))
	sd.SetMeta("lr", eccheck.FloatValue(1e-4))
	sd.SetMeta("run", eccheck.StringValue("exp-1"))
	sd.SetMeta("amp", eccheck.BoolValue(true))
	sd.SetMeta("rng", eccheck.BytesValue([]byte{1, 2}))
	ts, err := eccheck.NewTensor(eccheck.Float32, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.SetTensor("w", ts); err != nil {
		t.Fatal(err)
	}
	if sd.NumMeta() != 5 || sd.NumTensors() != 1 {
		t.Errorf("meta %d tensors %d", sd.NumMeta(), sd.NumTensors())
	}
	wrapped, err := eccheck.TensorFromBytes(eccheck.Float16, []int{2, 2}, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.NumBytes() != 8 {
		t.Errorf("NumBytes = %d", wrapped.NumBytes())
	}
}

func TestPublicAPICodec(t *testing.T) {
	codec, err := eccheck.NewCodec(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	size := codec.ChunkAlign(1000)
	data := make([][]byte, 3)
	parity := make([][]byte, 2)
	for i := range data {
		data[i] = make([]byte, size)
		for j := range data[i] {
			data[i][j] = byte(i*31 + j)
		}
	}
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := codec.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	chunks := append(append([][]byte{}, data...), parity...)
	orig0 := append([]byte(nil), chunks[0]...)
	chunks[0], chunks[3] = nil, nil
	if err := codec.Reconstruct(chunks); err != nil {
		t.Fatal(err)
	}
	for i := range orig0 {
		if chunks[0][i] != orig0[i] {
			t.Fatal("reconstructed chunk 0 differs")
		}
	}
}

func TestInitializeValidation(t *testing.T) {
	if _, err := eccheck.Initialize(eccheck.Config{Nodes: 4, GPUsPerNode: 1, TPDegree: 1, PPStages: 4, K: 2, M: 1}); err == nil {
		t.Error("nodes not a multiple of k+m: want error")
	}
	if _, err := eccheck.Initialize(eccheck.Config{Nodes: 0}); err == nil {
		t.Error("zero nodes: want error")
	}
	if _, err := eccheck.Initialize(eccheck.Config{
		Nodes: 4, GPUsPerNode: 1, TPDegree: 1, PPStages: 4, K: 2, M: 2, Transport: TransportKindBad,
	}); err == nil {
		t.Error("bad transport: want error")
	}
	if _, err := eccheck.Initialize(eccheck.Config{
		Nodes: 4, GPUsPerNode: 1, TPDegree: 1, PPStages: 4, K: 2, M: 2, LoadBudget: -time.Second,
	}); err == nil {
		t.Error("negative load budget: want error")
	}
	if _, err := eccheck.Initialize(eccheck.Config{
		Nodes: 4, GPUsPerNode: 1, TPDegree: 1, PPStages: 4, K: 2, M: 2, RemotePersistEvery: -1,
	}); err == nil || !strings.Contains(err.Error(), "DisableRemote") {
		t.Errorf("negative remote persist interval: err = %v, want an error naming DisableRemote", err)
	}
}

// TransportKindBad is an out-of-range transport for validation tests.
const TransportKindBad = eccheck.TransportKind(99)

func TestRemoteDisabled(t *testing.T) {
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes: 4, GPUsPerNode: 1, TPDegree: 1, PPStages: 4, K: 2, M: 2,
		DisableRemote: true, BufferSize: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	if _, err := sys.LoadFromRemote(context.Background(), 0); err == nil {
		t.Error("remote disabled: want error")
	}
}
