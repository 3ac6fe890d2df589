package core

import (
	"context"
	"fmt"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/remotestore"
	"eccheck/internal/transport"
)

func TestRemoteRetentionGC(t *testing.T) {
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
	remote, err := remotestore.New(1e12)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := New(Config{
		Topo:               topo,
		K:                  2,
		M:                  2,
		BufferSize:         64 << 10,
		RemotePersistEvery: 1, // persist every save; the two newest persisted versions stay
	}, net, clus, remote)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()

	opt := model.NewBuildOptions()
	opt.Scale = 64
	opt.Seed = 4
	dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := ckpt.Save(ctx, dicts); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}

	// Versions 4 and 5 survive; 1-3 are collected.
	for v := 1; v <= 5; v++ {
		has := remote.Has(fmt.Sprintf("eccheck/v%d/rank0", v))
		want := v > 5-remoteRetain
		if has != want {
			t.Errorf("version %d present = %v, want %v", v, has, want)
		}
	}

	// The retained newest version still restores.
	got, err := ckpt.LoadFromRemote(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Errorf("rank %d differs from remote restore", rank)
		}
	}
}
