package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"eccheck/internal/bufpool"
	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/model"
	"eccheck/internal/obs"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// The engine hands finished buffers to host memory instead of copying them
// in, reads them back as borrowed views, and takes the segment buffers a
// commit displaces back as the next round's staging area. These tests pin the
// rule that makes that safe: a stored blob is immutable while it is stored,
// and a displaced segment is next written by the following round's drain —
// after every reader that could hold a view of it has let go.

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

// payloadWindows counts the windows a full round ships over dicts: each
// rank's windows that hold any of its tensor bytes.
func payloadWindows(c *Checkpointer, dicts []*statedict.StateDict) int {
	n := 0
	for _, sd := range dicts {
		n += c.numBuffers(sd.TensorBytes())
	}
	return n
}

// stampRank clones base as checkpoint content number i in which only one
// rank's packet changed: every rank's iteration counter carries i, the edges
// of the first tensor of rank alone do.
func stampRank(base []*statedict.StateDict, rank, i int) []*statedict.StateDict {
	out := make([]*statedict.StateDict, len(base))
	for r, sd := range base {
		out[r] = sd.Clone()
		out[r].SetMeta("iteration", statedict.Int(int64(i)))
	}
	data := out[rank].TensorEntries()[0].Tensor.Data()
	data[0], data[len(data)-1] = byte(i), byte(i)
	return out
}

// storedSlices maps every blob in host memory, as "node/key", to the slice
// that is stored: a blob a round did not replace is the same slice after it.
func storedSlices(t *testing.T, rig *testRig) map[string]*byte {
	t.Helper()
	out := map[string]*byte{}
	for node := 0; node < rig.topo.Nodes(); node++ {
		for _, key := range rig.clus.Keys(node) {
			blob, err := rig.clus.View(node, key)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%d/%s", node, key)] = unsafe.SliceData(blob)
		}
	}
	return out
}

// counterOf reads one counter of the rig's metrics registry.
func counterOf(rig *testRig, name string) int64 {
	n, _ := rig.ckpt.cfg.Metrics.Snapshot().Counter(name)
	return n
}

// TestViewSurvivesFailReplaceRebuildAndAbortedSave: everything short of a
// commit leaves the bytes behind a view alone — the node failing and being
// replaced, the rebuild onto the fresh machine, and a save round that aborts
// (it wrote into the spare set, never into what is stored).
func TestViewSurvivesFailReplaceRebuildAndAbortedSave(t *testing.T) {
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 5})
	ctx := context.Background()
	contents := stampVersion(rig.dicts, 2)
	for _, dicts := range [][]*statedict.StateDict{rig.dicts, contents} { // the second commit fills the spare sets
		if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
			t.Fatal(err)
		}
	}
	node, victim := rig.ckpt.Plan().DataNodes[0], rig.ckpt.Plan().ParityNodes[0]
	key := keySegment(rig.ckpt.Plan().ChunkOfNode[node], 0)
	view, err := rig.ckpt.fetch(node, key)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), view...)
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(view, want) {
			t.Fatalf("%s changed the bytes behind a borrowed view", when)
		}
	}

	if err := net.ScheduleKill(victim, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, 3)); err == nil {
		t.Fatal("save with a machine killed mid-round reported success")
	}
	check("an aborted save")
	replaceFenced(t, rig, net, victim)
	if err := rig.clus.Fail(node); err != nil {
		t.Fatal(err)
	}
	check("the node failing")
	replaceFenced(t, rig, net, node)
	got, _, err := rig.ckpt.Load(ctx) // rebuilds both chunks onto the fresh machines
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, contents, got)
	check("Replace and the rebuild")
}

// replaceFenced swaps a dead machine for an empty one the way the root
// package does: behind the save fence, which replaces the node's spares with
// the stock its repair lands in.
func replaceFenced(t *testing.T, rig *testRig, net *chaos.Network, node int) {
	t.Helper()
	for rig.clus.Alive(node) { // a chaos kill's hook runs on the victim's goroutine
		runtime.Gosched()
	}
	err := rig.ckpt.WithSaveFence(context.Background(), node, func() error {
		if err := rig.clus.Replace(node); err != nil {
			return err
		}
		return net.Revive(node)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStock(t, rig, node)
}

// checkStock: a just-replaced node's spare stack is exactly its stock — one
// blob of the committed shape per segment of its chunk, none of them stored
// anywhere and no two alike — or empty before a first commit.
func checkStock(t *testing.T, rig *testRig, node int) {
	t.Helper()
	c := rig.ckpt
	want, size := 0, 0
	if c.Version() > 0 {
		want, size = c.Plan().Span(), cluster.FramedLen(int(c.packet.Load()), c.cfg.BufferSize)
	}
	stored := storedSlices(t, rig)
	seen := map[*byte]bool{}
	for _, addr := range stored {
		seen[addr] = true
	}
	c.spareMu.Lock()
	defer c.spareMu.Unlock()
	if got := len(c.spares[node]); got != want {
		t.Fatalf("node %d was replaced at version %d with %d spare blobs, want %d", node, c.Version(), got, want)
	}
	for _, blob := range c.spares[node] {
		if len(blob) != size || cap(blob) != size {
			t.Errorf("node %d's stock holds a %d-byte blob (cap %d), want the committed shape %d", node, len(blob), cap(blob), size)
		}
		if addr := unsafe.SliceData(blob); seen[addr] {
			t.Errorf("node %d's stock holds a blob that is stored or stocked twice", node)
		} else {
			seen[addr] = true
		}
	}
}

// TestHeldViewBlocksTheCommit: a reader that holds commitMu shared keeps the
// next commit — the only thing that retires what it is reading — waiting,
// and the commit goes through the moment it lets go.
func TestHeldViewBlocksTheCommit(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, noRemote)
	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, i)); err != nil {
			t.Fatal(err)
		}
	}
	node := rig.ckpt.Plan().ParityNodes[0]
	rig.ckpt.commitMu.RLock()
	view, err := rig.ckpt.fetch(node, keySegment(rig.ckpt.Plan().ChunkOfNode[node], 0))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), view...)
	h, err := rig.ckpt.SaveAsync(ctx, stampVersion(rig.dicts, 3))
	if err != nil {
		t.Fatal(err)
	}
	// A queued writer turns new readers away: that is the drain at its commit.
	for rig.ckpt.commitMu.TryRLock() {
		rig.ckpt.commitMu.RUnlock()
		runtime.Gosched()
	}
	if rig.ckpt.commitMu.TryLock() {
		t.Fatal("commit lock was free under a reader")
	}
	select {
	case <-h.Done():
		t.Fatal("the round committed under a reader holding the commit lock")
	default:
	}
	if rig.ckpt.Version() != 2 || !bytes.Equal(view, want) {
		t.Fatalf("version %d, view intact %v: the commit did not wait", rig.ckpt.Version(), bytes.Equal(view, want))
	}
	rig.ckpt.commitMu.RUnlock()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if rig.ckpt.Version() != 3 {
		t.Fatalf("version %d after the reader let go, want 3", rig.ckpt.Version())
	}
}

// TestNoBufferIsBothStoredAndSpare: across full, delta, sparse delta (one
// worker changed) and aborted rounds no buffer is ever a stored blob and a
// spare at once, no two nodes share one, a spare stack never outgrows one
// version's payload blobs (segments and own-packet caches), an aborted round
// leaves none behind, a blob a sparse round carries is the same slice after
// the commit, and the operator counters tell recycled, allocated and carried
// payload blobs apart.
func TestNoBufferIsBothStoredAndSpare(t *testing.T) {
	reg := obs.NewRegistry()
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 3}, func(c *Config) {
		c.IncrementalCache = true
		c.Metrics = reg
	})
	ctx := context.Background()
	plan, keys, g := rig.ckpt.Plan(), &rig.ckpt.lay.keys, rig.topo.GPUsPerNode()
	span := plan.Span()
	// blobs is node's payload blobs: its chunk's segments and the caches of
	// its workers whose data chunk is stored elsewhere.
	blobs := func(node int) int {
		n := span
		for w := node * g; w < (node+1)*g; w++ {
			if keys.base[w].cache {
				n++
			}
		}
		return n
	}
	// staged is how many payload blobs node stages in a round that changes
	// rank alone (rank < 0: every rank): the segments rank feeds that the
	// node stores — its data segment and the m parity segments of its index —
	// and its cache if it keeps one.
	staged := func(node, rank int) int {
		if rank < 0 {
			return blobs(node)
		}
		n, cg := 0, plan.GroupOfRank(rank)
		for chunk := 0; chunk < plan.K+plan.M; chunk++ {
			if (chunk == plan.DataGroupOf[rank] || chunk >= plan.K) && plan.ChunkOwner(cg, chunk) == node {
				n++
			}
		}
		if keys.base[rank].cache && rank/g == node {
			n++
		}
		return n
	}
	check := func(when string) {
		t.Helper()
		owner := map[*byte]string{}
		for node := 0; node < rig.topo.Nodes(); node++ {
			for _, key := range rig.clus.Keys(node) {
				if blob, err := rig.clus.View(node, key); err == nil && len(blob) > 0 {
					owner[unsafe.SliceData(blob)] = fmt.Sprintf("node %d key %q", node, key)
				}
			}
		}
		for node, set := range rig.ckpt.spares {
			if len(set) > blobs(node) {
				t.Errorf("%s: node %d holds %d spare blobs, more than one version's %d", when, node, len(set), blobs(node))
			}
			for _, seg := range set {
				if who, dup := owner[unsafe.SliceData(seg)]; dup {
					t.Errorf("%s: a spare of node %d is also %s", when, node, who)
				}
				owner[unsafe.SliceData(seg)] = fmt.Sprintf("a spare of node %d", node)
			}
		}
	}
	counters := func() (recycled, allocated, carried int64) {
		return counterOf(rig, "save_segments_recycled_total"), counterOf(rig, "save_segments_allocated_total"), counterOf(rig, "save_segments_carried_total")
	}

	committed := rig.dicts
	for i, kind := range []string{"full", "full", "delta", "sparse", "abort", "full", "sparse", "sparse", "delta", "abort", "full", "sparse", "full", "full"} {
		next := stampVersion(rig.dicts, i+1)
		recycledBefore, allocatedBefore, carriedBefore := counters()
		spares := make([]int, rig.topo.Nodes())
		for node, set := range rig.ckpt.spares {
			spares[node] = len(set)
		}
		rank := -1
		switch kind {
		case "sparse":
			// One worker feeds its data segment, the m = 2 parity segments of
			// its index and its own cache if it keeps one; every other payload
			// blob is carried.
			rank = i % rig.topo.World()
			next = stampRank(committed, rank, i+1)
			before := storedSlices(t, rig)
			rep, err := rig.ckpt.SaveIncremental(ctx, next)
			if err != nil || rep.Full {
				t.Fatalf("round %d: sparse delta round: %+v, %v", i, rep, err)
			}
			committed = next
			replaced := 0
			for key, blob := range storedSlices(t, rig) {
				if payload := strings.Contains(key, "/chunk/") || strings.Contains(key, "/own/"); payload && before[key] != blob {
					replaced++
				}
			}
			want := 3
			if rig.ckpt.lay.keys.base[rank].cache {
				want++
			}
			if replaced != want {
				t.Errorf("round %d: a one-worker delta replaced %d segments and caches, want %d", i, replaced, want)
			}
		case "full":
			if _, err := rig.ckpt.Save(ctx, next); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			committed = next
		case "delta":
			rep, err := rig.ckpt.SaveIncremental(ctx, next)
			if err != nil || rep.Full {
				t.Fatalf("round %d: delta round: %+v, %v", i, rep, err)
			}
			committed = next
		case "abort":
			victim := i % rig.topo.Nodes()
			if err := net.ScheduleKill(victim, 9+i); err != nil {
				t.Fatal(err)
			}
			if _, err := rig.ckpt.Save(ctx, next); err == nil {
				t.Fatalf("round %d: save with node %d killed mid-round reported success", i, victim)
			}
			for node, set := range rig.ckpt.spares {
				if set != nil {
					t.Errorf("round %d aborted and node %d still has %d spare segments", i, node, len(set))
				}
			}
			replaceFenced(t, rig, net, victim)
			got, _, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatalf("round %d: load after the abort: %v", i, err)
			}
			dictsEqual(t, committed, got)
		}
		check(fmt.Sprintf("after round %d (%s)", i, kind))
		if kind == "abort" {
			continue
		}
		// A node stages each blob in a spare while its stack lasts and
		// allocates the rest; what it does not stage is carried.
		recycled, allocated, carried := counters()
		recycled, allocated, carried = recycled-recycledBefore, allocated-allocatedBefore, carried-carriedBefore
		var wantRecycled, wantAllocated, wantCarried, all int64
		for node, have := range spares {
			need := staged(node, rank)
			wantRecycled += int64(min(need, have))
			wantAllocated += int64(max(need-have, 0))
			wantCarried += int64(blobs(node) - need)
			all += int64(blobs(node))
		}
		if recycled != wantRecycled || allocated != wantAllocated || carried != wantCarried {
			t.Errorf("round %d (%s): %d blobs recycled, %d allocated, %d carried; want %d, %d, %d", i, kind, recycled, allocated, carried, wantRecycled, wantAllocated, wantCarried)
		}
		// The first two rounds and the one after an abort find every stack
		// empty. Node 1, replaced after round 9's abort, loses its two caches:
		// round 10 restages them displacing none, so the next full round, 12,
		// allocates them again. Every other round allocates nothing.
		fresh := int64(0)
		switch i {
		case 0, 1, 5, 10:
			fresh = all
		case 12:
			fresh = 2
		}
		if allocated != fresh {
			t.Errorf("round %d (%s) allocated %d blobs, want %d", i, kind, allocated, fresh)
		}
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, committed, got)
	verifyClean(t, rig)
}

// TestSteadyStateSaveAllocatesNoSegments is the allocation gate of the
// double-buffered segment store: once two rounds have committed, a save —
// full or delta — assembles its segments in the buffers the last commit
// displaced, so what it allocates is a fraction of the tensor payload, where
// allocating the coded checkpoint afresh costs (k+m)/k of it. A replaced
// machine starts cold: the first save after it allocates that node's chunk
// and no more, the second nothing again. A worker whose data chunk is stored
// on another machine keeps an own-packet cache: packed in place, like a local
// worker's data segment, in a blob the last commit displaced, so a round that
// changes every worker and a delta round that changes one stay under the
// same quarter.
func TestSteadyStateSaveAllocatesNoSegments(t *testing.T) {
	var probe [1]byte
	if retire(probe[:]); probe[0] != 0 {
		t.Skip("the race detector drops pooled buffers at random: allocation is not a function of the code under test")
	}
	// A pooled buffer that a collection cycle dropped, or that sits in another
	// P's private slot, is allocated again inside the measured window: no
	// collections and one P, so the count is the code's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 0.25 // of the tensor payload
	ctx := context.Background()
	for _, shape := range []struct {
		name              string
		nodes, gpus, k, m int
	}{{"k2m2", 4, 2, 2, 2}, {"k4m4", 8, 1, 4, 4}} {
		// allocated runs one save round over fresh content and returns what it
		// allocated and its per-worker packet size, both in tensor payloads.
		round := 0
		var dicts []*statedict.StateDict
		allocated := func(t *testing.T, rig *testRig, delta bool, oneRank ...int) (alloc, packet float64) {
			t.Helper()
			round++
			if len(oneRank) == 0 {
				dicts = stampVersion(rig.dicts, round)
			} else {
				dicts = stampRank(dicts, oneRank[0], round)
			}
			payload := 0
			for _, sd := range dicts {
				payload += sd.TensorBytes()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h, err := rig.ckpt.startSave(ctx, dicts, saveMode{delta: delta})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := h.Wait(ctx)
			runtime.ReadMemStats(&after)
			if err != nil || h.delta != delta {
				t.Fatalf("round %d: delta %v, want %v; %v", round, h.delta, delta, err)
			}
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(payload), float64(rep.PacketBytes) / float64(payload)
		}
		t.Run(shape.name, func(t *testing.T) {
			rig := newRig(t, shape.nodes, shape.gpus, shape.k, shape.m, noRemote)
			cold, packet := allocated(t, rig, false)
			allocated(t, rig, false)
			if chunks := float64(rig.topo.World()/shape.k*rig.topo.Nodes()) * packet; cold < chunks {
				t.Fatalf("the first save allocated %.2f x payload, less than the %.2f of its own segments", cold, chunks)
			}
			for i := 0; i < 3; i++ {
				if got, _ := allocated(t, rig, false); got > limit {
					t.Errorf("steady-state save allocated %.2f x the tensor payload, want <= %.2f (first save: %.2f)", got, limit, cold)
				}
			}

			victim := rig.ckpt.Plan().ParityNodes[0]
			if err := rig.clus.Fail(victim); err != nil {
				t.Fatal(err)
			}
			err := rig.ckpt.WithSaveFence(ctx, victim, func() error { return rig.clus.Replace(victim) })
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := rig.ckpt.Load(ctx); err != nil {
				t.Fatal(err)
			}
			chunk := float64(rig.topo.World()/shape.k) * packet // one node's segments
			if got, _ := allocated(t, rig, false); got < chunk || got > chunk+limit {
				t.Errorf("first save after a replacement allocated %.2f x payload, want the replaced node's chunk %.2f and at most %.2f more", got, chunk, limit)
			}
			if got, _ := allocated(t, rig, false); got > limit {
				t.Errorf("second save after a replacement allocated %.2f x payload, want <= %.2f", got, limit)
			}
		})
		t.Run(shape.name+"/delta", func(t *testing.T) {
			// Two workers a machine and a model four times the default rig's: one
			// packet — the cache a one-worker round restages — is an eighth of
			// the payload or less (a quarter on k4m4's 8 x 1, whose first
			// pipeline stage holds the embeddings), and the small components,
			// staged on every node every round, a twentieth.
			const gpus = 2
			topo, err := parallel.NewTopology(shape.nodes, gpus, gpus, shape.nodes)
			if err != nil {
				t.Fatal(err)
			}
			buildOpt := model.NewBuildOptions()
			buildOpt.Scale, buildOpt.Seed = 16, 1234
			dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt)
			if err != nil {
				t.Fatal(err)
			}
			net, err := transport.NewMemory(shape.nodes)
			if err != nil {
				t.Fatal(err)
			}
			rig := newRigOn(t, net, dicts, shape.nodes, gpus, shape.k, shape.m, noRemote, func(c *Config) { c.IncrementalCache = true })
			allocated(t, rig, false)
			allocated(t, rig, false)
			for _, delta := range []bool{true, false, true} {
				if got, _ := allocated(t, rig, delta); got > limit {
					t.Errorf("steady-state save (delta %v) allocated %.2f x the tensor payload, want <= %.2f", delta, got, limit)
				}
				if got, _ := allocated(t, rig, true, round%rig.topo.World()); got > limit {
					t.Errorf("delta round with one changed worker allocated %.2f x the tensor payload, want <= %.2f in total", got, limit)
				}
			}
		})
	}
}

// TestSteadyStateSaveMallocs counts the heap allocations of a steady-state
// full save, on TestSteadyStateSaveAllocatesNoSegments's set-up (one P, no
// collections, no race detector), and holds each shape to a pinned count:
// the per-round bookkeeping — root fold table, ledger, streams, goroutines —
// is sized from the plan, so a change that adds a per-window or per-message
// allocation shows here. Each limit is the count measured on linux/amd64
// (go1.24) plus 10 %.
func TestSteadyStateSaveMallocs(t *testing.T) {
	var probe [1]byte
	if retire(probe[:]); probe[0] != 0 {
		t.Skip("the race detector drops pooled buffers at random: allocation is not a function of the code under test")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	for _, shape := range []struct {
		name              string
		nodes, gpus, k, m int
		measured          uint64
	}{
		{"16x1 k8m8", 16, 1, 8, 8, 2276},
		{"4x2 k2m2", 4, 2, 2, 2, 519},
		{"8x2 k4m4", 8, 2, 4, 4, 1063},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rig := newRig(t, shape.nodes, shape.gpus, shape.k, shape.m, noRemote)
			var most uint64
			for round := 1; round <= 6; round++ {
				dicts := stampVersion(rig.dicts, round)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if round > 2 { // two rounds fill the spare stacks and the pool
					most = max(most, after.Mallocs-before.Mallocs)
				}
			}
			t.Logf("a steady full save made %d heap allocations (pinned: %d)", most, shape.measured)
			if limit := shape.measured + shape.measured/10; most > limit {
				t.Errorf("a steady full save made %d heap allocations, want <= %d (measured: %d)", most, limit, shape.measured)
			}
		})
	}
}

// TestInPlacePacketsTakeNoPooledPacket: a rank whose packet is kept on its
// own node — as its data segment, or as its own-packet cache under
// IncrementalCache — is packed straight into that host blob and takes no
// packet-sized pooled buffer. A steady full round takes three pooled buffers
// per worker (its decomposition's meta and keys blobs and its meta message),
// the packet of each worker kept nowhere on its node, and one per (worker,
// payload window, reduction) — a window holding any of the worker's tensor
// bytes, never one of its zero tail; a steady delta round takes the same per
// worker and, per shipped window, its delta and the delta's m products. With
// caches on, every worker packs in place. The engine is given a pool of its
// own, so the transport's copies are not counted.
func TestInPlacePacketsTakeNoPooledPacket(t *testing.T) {
	ctx := context.Background()
	for _, cache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			rig := newRig(t, 4, 2, 2, 2, noRemote, func(c *Config) { c.IncrementalCache = cache })
			reg := obs.NewRegistry()
			rig.ckpt.buf = bufpool.New()
			rig.ckpt.buf.SetMetrics(reg)
			hits, misses := reg.Counter("bufpool_hits_total"), reg.Counter("bufpool_misses_total")
			world, m := rig.topo.World(), int64(rig.ckpt.cfg.M)
			pooled := 0 // workers whose packet is kept nowhere on their node
			for w := 0; w < world; w++ {
				if !rig.ckpt.keptInPlace(w) {
					pooled++
				}
			}
			if cache != (pooled == 0) || pooled == world {
				t.Fatalf("caches %v and %d of %d workers kept nowhere on their node", cache, pooled, world)
			}
			round := 0
			run := func(delta bool) (gets int64, shipped, windows int) {
				t.Helper()
				round++
				before := hits.Value() + misses.Value()
				h, err := rig.ckpt.startSave(ctx, stampVersion(rig.dicts, round), saveMode{delta: delta})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := h.Wait(ctx)
				if err != nil || h.delta != delta {
					t.Fatalf("round %d: delta %v, want %v; %v", round, h.delta, delta, err)
				}
				return hits.Value() + misses.Value() - before, h.shipped, rig.ckpt.numBuffers(rep.PacketBytes)
			}
			run(false)
			run(false)
			gets, _, windows := run(false)
			payload := payloadWindows(rig.ckpt, rig.dicts)
			if payload >= world*windows {
				t.Fatalf("%d payload windows of %d: no worker's packet has a zero tail", payload, world*windows)
			}
			if want := int64(3*world+pooled) + int64(payload)*m; gets != want {
				t.Errorf("steady full round took %d pooled buffers, want %d: 3 per worker, %d packets and %d per payload window (%d of the round's %d)",
					gets, want, pooled, m, payload, world*windows)
			}
			if !cache {
				return
			}
			gets, shipped, _ := run(true)
			if shipped == 0 || shipped == world*windows {
				t.Fatalf("delta round shipped %d of %d windows: not a sparse delta", shipped, world*windows)
			}
			if want := int64(3*world) + int64(shipped)*(1+m); gets != want {
				t.Errorf("steady delta round took %d pooled buffers, want %d: 3 per worker and %d per shipped window x %d",
					gets, want, 1+m, shipped)
			}
		})
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
	}, noRemote)
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

func (s *storeHook) Store(node int, key string, blob []byte) error {
	if err := s.call("store", node, key); err != nil {
		return err
	}
	return s.HostStore.Store(node, key, blob)
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
			if _, err := rig.ckpt.fetch(node, key); err != nil {
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
	rd := &restoreRound{scan: make([]nodeScan, rig.topo.Nodes())}
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
