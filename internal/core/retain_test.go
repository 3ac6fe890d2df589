package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

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

// TestRemoteRetentionAcrossFailedPersists: a persist that fails leaves a gap
// in the tier's versions, and retention looks past it. After every persist
// that lands, the tier holds exactly the remoteRetain newest persisted
// versions, each whole, whichever persists failed in between: the one before
// the newest stays for a reader that started before the newest landed, and
// nothing older leaks. A persist fails while the tier stalls past the op
// deadline; once at v4, and at v3 and v4 in a row.
func TestRemoteRetentionAcrossFailedPersists(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failed []int
	}{
		{"one failure", []int{4}},
		{"two in a row", []int{3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, 4, 2, 2, 2, func(c *Config) {
				c.OpTimeout = 100 * time.Millisecond
				c.RemotePersistEvery = 1
			})
			world := rig.topo.World()
			ctx := context.Background()
			var persisted []int
			for v := 1; v <= 6; v++ {
				stalled := slices.Contains(tc.failed, v)
				if stalled {
					rig.remote.SetStall(30 * time.Second)
				}
				rep, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, v))
				rig.remote.SetStall(0)
				if err != nil {
					t.Fatalf("save of v%d: %v", v, err)
				}
				if rep.RemotePersisted == stalled {
					t.Fatalf("v%d: RemotePersisted = %v with the tier stalled = %v", v, rep.RemotePersisted, stalled)
				}
				if stalled {
					continue
				}
				persisted = append(persisted, v)
				ranks := map[int]int{} // version -> its keys in the tier
				var got []int
				for _, key := range rig.remote.Keys(remoteKeyPrefix) {
					if version, _, ok := parseRemoteKey(key); ok {
						if ranks[version]++; ranks[version] == 1 {
							got = append(got, version)
						}
					}
				}
				slices.Sort(got)
				want := persisted[max(0, len(persisted)-remoteRetain):]
				if !slices.Equal(got, want) {
					t.Errorf("after v%d the tier holds versions %v, want %v", v, got, want)
				}
				for _, version := range got {
					if ranks[version] != world {
						t.Errorf("after v%d the tier holds %d ranks of v%d, want %d", v, ranks[version], version, world)
					}
				}
			}
			got, err := rig.ckpt.LoadFromRemote(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			dictsEqual(t, stampVersion(rig.dicts, 6), got)
		})
	}
}
