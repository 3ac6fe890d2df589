package core

import (
	"context"
	"fmt"
	"testing"

	"eccheck/internal/bufpool"
	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/obs"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
)

// scribblePool drains bufpool.Default and fills every recycled buffer with
// garbage, keeping the buffers so they cannot return to the pool. If any
// live data (a recovered state dict, a stored checkpoint blob) aliases a
// buffer that was Put back, the scribble corrupts it and the caller's
// equality checks catch the leak. The pool's miss counter bounds the drain:
// a Get that misses means the class is empty, so the test never allocates
// more than one throwaway buffer per class.
func scribblePool(t *testing.T) {
	t.Helper()
	reg := obs.NewRegistry()
	bufpool.Default.SetMetrics(reg)
	defer bufpool.Default.SetMetrics(nil)
	misses := reg.Counter("bufpool_misses_total")

	var kept [][]byte
	// Classes from 256 B up to 16 MB cover everything a test-sized rig
	// pools; larger classes are skipped to keep the drain cheap.
	for size := 256; size <= 16<<20; size *= 2 {
		for {
			before := misses.Value()
			buf := bufpool.Default.Get(size)
			if misses.Value() != before {
				break // class empty: this buffer is fresh, not recycled
			}
			for i := range buf {
				buf[i] = 0xAA
			}
			kept = append(kept, buf)
		}
	}
	t.Logf("scribbled %d recycled buffers", len(kept))
}

// A pooled buffer must never stay reachable from live checkpoint state: the
// save/load hot paths recycle aggressively, and a single wrong Put would
// surface as silent corruption on the next round. The test runs a full
// save/load (including a rebuild after parity-node replacement), scribbles
// everything the pool holds, and requires the recovered dicts and the
// stored checkpoint to remain intact.
func TestPooledBuffersNotAliasedByLiveState(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	scribblePool(t)
	dictsEqual(t, rig.dicts, got)

	// The rebuild workflow exercises the remaining pooled paths (rebuild
	// contributions, zeroed accumulators, packet redistribution).
	plan := rig.ckpt.Plan()
	for _, node := range plan.ParityNodes {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got2, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lrep.MissingChunks) != 2 {
		t.Fatalf("missing chunks = %v, want 2 rebuilt", lrep.MissingChunks)
	}
	scribblePool(t)
	dictsEqual(t, rig.dicts, got2)

	// The in-memory checkpoint itself must survive the scribble too: blobs
	// handed to the cluster store must have been copied, not retained.
	got3, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, rig.dicts, got3)
}

// TestHostBlobsNeverReachThePool: a host blob — a segment or an own-packet
// cache, stored, spare, or packed in place by a snapshot — is never Put. The
// shape makes a stray Put stick: 4 KiB windows and 65,472-byte packets give
// 16 windows, so a blob's stored length is 65,536 bytes, exactly the 64 KiB
// pool class, which Put accepts. Full, delta, errNoDeltaBase-retried,
// snapshot-failed and chaos-aborted rounds run; after each the pool is
// scribbled, and every stored blob must still verify, parity match data and
// Load return the committed state byte for byte.
func TestHostBlobsNeverReachThePool(t *testing.T) {
	const nodes, gpus, bufSize, packetBytes = 4, 2, 4 << 10, 65472
	if framed := cluster.FramedLen(packetBytes, bufSize); framed != 64<<10 {
		t.Fatalf("a %d-byte packet frames to %d bytes, not the 64 KiB pool class", packetBytes, framed)
	}
	dicts := make([]*statedict.StateDict, nodes*gpus)
	for rank := range dicts {
		tn, err := tensor.New(tensor.Float32, packetBytes/4)
		if err != nil {
			t.Fatal(err)
		}
		tn.FillPattern(uint64(rank + 1))
		dicts[rank] = statedict.New()
		if err := dicts[rank].SetTensor("payload", tn); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 1
	rig, net := newChaosRigOver(t, dicts, nodes, gpus, 2, 2, chaos.Plan{Seed: 5}, func(c *Config) {
		c.BufferSize = bufSize
		c.IncrementalCache = true
	})
	ctx := context.Background()
	committed := rig.dicts
	settle := func(when string) {
		t.Helper()
		scribblePool(t)
		for node := 0; node < nodes; node++ {
			for _, key := range rig.clus.Keys(node) {
				if _, err := rig.ckpt.fetch(node, key); err != nil {
					t.Fatalf("%s: node %d key %q: %v", when, node, key, err)
				}
			}
		}
		verifyClean(t, rig)
		got, _, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatalf("%s: load: %v", when, err)
		}
		dictsEqual(t, committed, got)
	}
	version := 0
	save := func(when string, delta, wantFull bool) {
		t.Helper()
		version++
		next := stampVersion(rig.dicts, version)
		if delta {
			rep, err := rig.ckpt.SaveIncremental(ctx, next)
			if err != nil || rep.Full != wantFull {
				t.Fatalf("%s: %+v, %v; want a full round %v", when, rep, err, wantFull)
			}
		} else if _, err := rig.ckpt.Save(ctx, next); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		committed = next
		settle(when)
	}
	save("first full round", false, false)
	save("steady full round", false, false)
	save("steady delta round", true, false)

	cached := -1 // the second worker of a node that keeps caches
	for w := gpus - 1; w < len(dicts) && cached < 0; w += gpus {
		if rig.ckpt.lay.keys.base[w].cache {
			cached = w
		}
	}
	if err := rig.clus.Corrupt(cached/gpus, keyOwnPacket(cached), 10); err != nil {
		t.Fatal(err)
	}
	save("delta round retried as a full one", true, true)

	for _, delta := range []bool{false, true} {
		poisoned := stampVersion(rig.dicts, version+1)
		poisoned[cached].SetMeta("poison", statedict.Value{}) // no encodable kind: its decompose fails
		var err error
		if delta {
			_, err = rig.ckpt.SaveIncremental(ctx, poisoned)
		} else {
			_, err = rig.ckpt.Save(ctx, poisoned)
		}
		if err == nil {
			t.Fatalf("snapshot of a poisoned rank (delta %v) succeeded", delta)
		}
		settle(fmt.Sprintf("failed snapshot (delta %v)", delta))
	}
	save("steady delta round after the failed snapshots", true, false)

	for _, delta := range []bool{true, false} {
		if err := net.ScheduleKill(victim, 12); err != nil {
			t.Fatal(err)
		}
		var err error
		if delta {
			_, err = rig.ckpt.SaveIncremental(ctx, stampVersion(rig.dicts, version+1))
		} else {
			_, err = rig.ckpt.Save(ctx, stampVersion(rig.dicts, version+1))
		}
		if err == nil {
			t.Fatalf("round (delta %v) with node %d killed mid-round reported success", delta, victim)
		}
		replaceFenced(t, rig, net, victim)
		got, _, err := rig.ckpt.Load(ctx) // rebuilds the replaced node
		if err != nil {
			t.Fatal(err)
		}
		dictsEqual(t, committed, got)
		settle(fmt.Sprintf("aborted round (delta %v)", delta))
		save(fmt.Sprintf("full round after the abort (delta %v)", delta), false, false)
	}
	save("steady delta round after the aborts", true, false)
}
