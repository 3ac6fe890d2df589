package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"eccheck/internal/cluster"
	"eccheck/internal/statedict"
)

// The engine hands finished buffers to host memory instead of copying them
// in, and reads them back as borrowed views. These tests pin the hand-off
// rule that makes that safe: a stored blob is immutable from the moment it
// is handed over, so no later round, failure or replacement can change the
// bytes behind a view.

// stampVersion clones dicts as checkpoint content number i: every rank's
// iteration counter and the edges of its first tensor carry i, so a
// recovered cluster state names the version each rank came from.
func stampVersion(dicts []*statedict.StateDict, i int) []*statedict.StateDict {
	out := make([]*statedict.StateDict, len(dicts))
	for rank, sd := range dicts {
		out[rank] = sd.Clone()
		out[rank].SetMeta("iteration", statedict.Int(int64(i)))
		data := out[rank].TensorEntries()[0].Tensor.Data()
		data[0], data[len(data)-1] = byte(i), byte(i)
	}
	return out
}

func TestViewSurvivesLaterCommitFailAndReplace(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, func(c *Config) { c.RemotePersistEvery = -1 })
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	node := rig.ckpt.Plan().DataNodes[0]
	key := keySegment(rig.ckpt.Plan().ChunkOfNode[node], 0)
	view, err := rig.ckpt.fetch(node, key)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), view...)

	next := stampVersion(rig.dicts, 2)
	if _, err := rig.ckpt.Save(ctx, next); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, want) {
		t.Fatal("a later Save commit changed the bytes behind a borrowed view")
	}
	if now, err := rig.ckpt.fetch(node, key); err != nil || bytes.Equal(now, want) {
		t.Fatalf("segment did not change across the commit (err %v): the test is not exercising an overwrite", err)
	}
	if err := rig.clus.Fail(node); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(node); err != nil {
		t.Fatal(err)
	}
	got, _, err := rig.ckpt.Load(ctx) // rebuilds the chunk onto the fresh machine
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, next, got)
	if !bytes.Equal(view, want) {
		t.Fatal("Fail, Replace and the rebuild changed the bytes behind a borrowed view")
	}
}

// TestConcurrentLoadAndSaveAsyncNeverMixVersions runs recoveries against a
// stream of asynchronous saves. Every recovered cluster state must be
// exactly one of the saved versions — never ranks from two of them — and
// the race detector must stay quiet about the borrowed views.
func TestConcurrentLoadAndSaveAsyncNeverMixVersions(t *testing.T) {
	hook := &storeHook{}
	rig, _ := newWrappedRig(t, 4, 2, 2, 2, func(hs HostStore) HostStore {
		hook.HostStore = hs
		return hook
	}, func(c *Config) { c.RemotePersistEvery = -1 })
	loadWhileSaving(t, rig, hook, func(ctx context.Context, dicts []*statedict.StateDict) error {
		h, err := rig.ckpt.SaveAsync(ctx, dicts)
		if err != nil {
			return err
		}
		_, err = h.Wait(ctx)
		return err
	})
}

// storeHook runs a test's function on the goroutine that is about to view a
// blob in host memory or hand one over, before it does; an error it returns
// fails the operation instead.
type storeHook struct {
	HostStore
	fn atomic.Pointer[func(op string, node int, key string) error]
}

func (s *storeHook) call(op string, node int, key string) error {
	if fn := s.fn.Load(); fn != nil {
		return (*fn)(op, node, key)
	}
	return nil
}

func (s *storeHook) View(node int, key string) ([]byte, error) {
	if err := s.call("view", node, key); err != nil {
		return nil, err
	}
	return s.HostStore.View(node, key)
}

func (s *storeHook) Adopt(node int, key string, blob []byte) error {
	if err := s.call("adopt", node, key); err != nil {
		return err
	}
	return s.HostStore.Adopt(node, key, blob)
}

// TestConcurrentLoadAndDeltaSaveNeverMixVersions is the same race with delta
// rounds: they stage and commit like every other round, so a recovery that
// overlaps one reads the version before it or the version after it.
func TestConcurrentLoadAndDeltaSaveNeverMixVersions(t *testing.T) {
	rig := incrementalRig(t)
	// No prefetch leg: a node degraded on purpose takes the delta base away,
	// and the saver insists on delta rounds.
	loadWhileSaving(t, rig, nil, func(ctx context.Context, dicts []*statedict.StateDict) error {
		rep, err := rig.ckpt.SaveIncremental(ctx, dicts)
		if err == nil && rep.Full {
			err = errors.New("delta round fell back to a full save")
		}
		return err
	})
}

// loadWhileSaving saves a sequence of stamped versions with save on one
// goroutine while the caller's goroutine recovers in a loop, and requires
// every recovery to return one saved version on every rank.
//
// With a hook on the rig's store, each recovery is followed by the
// warm-standby leg: PrefetchChunk on a node whose manifest it cannot read,
// held at its first segment store until the saver's next commit has either
// happened or queued up behind the round's commit lock. The cluster must
// then verify — one version everywhere, parity matching data. It does not if
// the commit went through mid-prefetch: the node ends up a version behind.
func loadWhileSaving(t *testing.T, rig *testRig, hook *storeHook, save func(ctx context.Context, dicts []*statedict.StateDict) error) {
	ctx := context.Background()
	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	versions := make([][]*statedict.StateDict, rounds+1)
	for i := range versions {
		versions[i] = stampVersion(rig.dicts, i)
	}
	if _, err := rig.ckpt.Save(ctx, versions[0]); err != nil {
		t.Fatal(err)
	}

	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		for i := 1; i <= rounds; i++ {
			if err := save(ctx, versions[i]); err != nil {
				t.Errorf("save %d: %v", i, err)
				return
			}
		}
	}()

	loads := 0
	for running := true; running; {
		select {
		case <-saverDone:
			running = false // one last load after the final commit
		default:
		}
		got, _, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatalf("load %d: %v", loads, err)
		}
		loads++
		iter, ok := got[0].Meta("iteration")
		if !ok {
			t.Fatal("recovered rank 0 has no iteration counter")
		}
		v, err := iter.AsInt()
		if err != nil || v < 0 || int(v) > rounds {
			t.Fatalf("recovered iteration %v (%v) is not a saved version", v, err)
		}
		for rank := range got {
			if !got[rank].Equal(versions[v][rank]) {
				t.Fatalf("load %d: rank 0 is version %d but rank %d is not: version mixture", loads, v, rank)
			}
		}
		if !running && int(v) != rounds {
			t.Errorf("final load recovered version %d, want %d", v, rounds)
		}
		if hook == nil {
			continue
		}
		standby := rig.ckpt.Plan().DataNodes[0]
		firstSeg := keySegment(rig.ckpt.Plan().ChunkOfNode[standby], 0)
		hold := func(op string, node int, key string) error {
			if op == "view" && node == standby && key == keyManifest() {
				return errors.New("manifest lost")
			}
			committed := rig.ckpt.Version()
			for op == "adopt" && node == standby && key == firstSeg && rig.ckpt.Version() == committed {
				select {
				case <-saverDone:
					return nil // no commit is coming
				default:
				}
				if !rig.ckpt.commitMu.TryRLock() {
					return nil // a commit is waiting for this round to finish
				}
				rig.ckpt.commitMu.RUnlock()
				runtime.Gosched()
			}
			return nil
		}
		hook.fn.Store(&hold)
		_, err = rig.ckpt.PrefetchChunk(ctx, standby)
		hook.fn.Store(nil)
		if err != nil {
			t.Fatalf("prefetch after load %d: %v", loads, err)
		}
		if vr, err := rig.ckpt.VerifyIntegrity(); err != nil || len(vr.CorruptSegments) != 0 {
			t.Fatalf("after load %d and a prefetch: VerifyIntegrity: %v, %+v", loads, err, vr)
		}
	}
}

// TestEveryStoredKeyVerifiesAfterRounds: after full saves, delta saves and a
// rebuilding recovery, every blob in host memory still carries a checksum
// that matches its bytes, parity still matches data, and no staging key
// outlived its round — nothing wrote to a segment after it was sealed.
func TestEveryStoredKeyVerifiesAfterRounds(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	dicts := rig.dicts
	for i := 1; i <= 6; i++ {
		dicts = stampVersion(rig.dicts, i)
		if i%3 == 0 {
			if _, err := rig.ckpt.SaveIncremental(ctx, dicts); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		} else if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	victim := rig.ckpt.Plan().ParityNodes[0]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, dicts, got)

	for node := 0; node < rig.topo.Nodes(); node++ {
		keys := rig.clus.Keys(node)
		if len(keys) == 0 {
			t.Errorf("node %d holds no blobs", node)
		}
		for _, key := range keys {
			if strings.HasPrefix(key, stagePrefix) {
				t.Errorf("node %d: staging key %q outlived its round", node, key)
			}
			if _, err := cluster.FetchSummed(rig.clus, node, key); err != nil {
				t.Errorf("node %d key %q: %v", node, key, err)
			}
		}
	}
	rep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptSegments) != 0 {
		t.Errorf("parity mismatch on segments %v", rep.CorruptSegments)
	}
}

// TestLoadScanAllocatesPerKeyNotPerByte: the availability scan verifies
// every blob in place, so what it allocates scales with the number of keys
// (key strings, per-node bookkeeping), not with the bytes it checksums.
func TestLoadScanAllocatesPerKeyNotPerByte(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.Save(context.Background(), rig.dicts); err != nil {
		t.Fatal(err)
	}
	keys, stored := 0, 0
	for node := 0; node < rig.topo.Nodes(); node++ {
		keys += len(rig.clus.Keys(node))
		stored += rig.clus.MemoryBytes(node)
	}
	const perKey = 1 << 10
	if stored < 16*perKey*keys {
		t.Fatalf("checkpoint of %d bytes over %d keys is too small to tell O(keys) from O(bytes)", stored, keys)
	}
	rd := &restoreRound{lay: rig.ckpt.layout(), scan: make([]nodeScan, rig.topo.Nodes())}
	nodes := upTo(rig.topo.Nodes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rig.ckpt.scanNodes(rd, nodes, false)
	rig.ckpt.scanNodes(rd, nodes, true)
	runtime.ReadMemStats(&after)
	if corrupt := rd.corrupt.Load(); corrupt != 0 {
		t.Fatalf("scan: %d corrupt blobs", corrupt)
	}
	for node, st := range rd.scan {
		if !st.manifestOK || !st.chunkOK || !st.smallsOK || !st.deep || st.lost != nil {
			t.Errorf("node %d scanned as %+v, want fully intact", node, st)
		}
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > uint64(perKey*keys) {
		t.Errorf("scan of %d bytes in %d keys allocated %d bytes, want <= %d (O(keys))",
			stored, keys, delta, perKey*keys)
	}
}
