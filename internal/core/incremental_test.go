package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/model"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/obs/health"
	"eccheck/internal/parallel"
	"eccheck/internal/placement"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

func incrementalRig(t *testing.T) *testRig {
	t.Helper()
	return newRig(t, 4, 2, 2, 2, noRemote, func(cfg *Config) { cfg.IncrementalCache = true })
}

// mutateSomeTensors flips a byte in the first tensor of the given ranks
// and bumps the iteration counter everywhere.
func mutateSomeTensors(dicts []*statedict.StateDict, ranks []int, iter int64) []*statedict.StateDict {
	out := make([]*statedict.StateDict, len(dicts))
	for rank, sd := range dicts {
		out[rank] = sd.Clone()
		out[rank].SetMeta("iteration", statedict.Int(iter))
	}
	for _, rank := range ranks {
		entries := out[rank].TensorEntries()
		entries[0].Tensor.Data()[0] ^= 0xA5
	}
	return out
}

func TestIncrementalRequiresCacheConfig(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	if _, err := rig.ckpt.SaveIncremental(context.Background(), rig.dicts); err == nil {
		t.Error("incremental without cache config: want error")
	}
}

func TestIncrementalFirstSaveFallsBackToFull(t *testing.T) {
	rig := incrementalRig(t)
	rep, err := rig.ckpt.SaveIncremental(context.Background(), rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Error("first incremental save must fall back to full")
	}
	if rep.Version != 1 {
		t.Errorf("version %d", rep.Version)
	}
}

func TestIncrementalUpdateRecoversExactly(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}

	// Change two workers' tensors; everyone's metadata changes.
	newDicts := mutateSomeTensors(rig.dicts, []int{1, 6}, 101)
	rep, err := rig.ckpt.SaveIncremental(ctx, newDicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("second save should be incremental")
	}
	if rep.Version != 2 {
		t.Errorf("version %d", rep.Version)
	}
	if rep.ChangedBuffers == 0 || rep.ChangedBuffers >= rep.TotalBuffers {
		t.Errorf("changed %d of %d buffers; want a sparse update",
			rep.ChangedBuffers, rep.TotalBuffers)
	}

	// The coded checkpoint must be internally consistent after the patch.
	vrep, err := rig.ckpt.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrep.CorruptSegments) != 0 {
		t.Fatalf("incremental update corrupted segments %v", vrep.CorruptSegments)
	}

	// Recovery after the worst failure returns the NEW state.
	for _, node := range rig.ckpt.Plan().DataNodes {
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
	if lrep.Version != 2 {
		t.Errorf("recovered version %d", lrep.Version)
	}
	dictsEqual(t, newDicts, got)
}

func TestIncrementalNoChangeShipsNothing(t *testing.T) {
	// The fault injector's send counters are the witness; its plan injects
	// nothing.
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1}, func(cfg *Config) { cfg.IncrementalCache = true })
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	before := net.Stats().Sends
	rep, err := rig.ckpt.SaveIncremental(ctx, rig.dicts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full {
		t.Fatal("should be incremental")
	}
	if rep.ChangedBuffers != 0 {
		t.Errorf("identical state changed %d buffers", rep.ChangedBuffers)
	}
	// No tensor-window message at all: the round sends the step-2 broadcast
	// (two messages per rank to every other node) and nothing else.
	if got, want := net.Stats().Sends-before, 2*rig.topo.World()*(rig.topo.Nodes()-1); got != want {
		t.Errorf("a 0%%-changed round sent %d messages, want the %d of the small-component broadcast", got, want)
	}
	// Still recoverable at the new version.
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Version != 2 {
		t.Errorf("version %d", lrep.Version)
	}
	dictsEqual(t, rig.dicts, got)
}

func TestIncrementalAfterRecoveryFallsBackToFull(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	victim := rig.ckpt.Plan().ParityNodes[0]
	if err := rig.clus.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if err := rig.clus.Replace(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.ckpt.Load(ctx); err != nil {
		t.Fatal(err)
	}
	// The replaced node's packet cache is gone: incremental must detect
	// it and run a full save.
	newDicts := mutateSomeTensors(rig.dicts, []int{0}, 55)
	rep, err := rig.ckpt.SaveIncremental(ctx, newDicts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Error("missing caches after replacement: want full-save fallback")
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, newDicts, got)
}

func TestIncrementalChainOfUpdates(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	current := rig.dicts
	for step := 0; step < 5; step++ {
		current = mutateSomeTensors(current, []int{step % 8, (step * 3) % 8}, int64(200+step))
		rep, err := rig.ckpt.SaveIncremental(ctx, current)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rep.Full {
			t.Fatalf("step %d fell back to full", step)
		}
	}
	// Fail a data node and a parity node, then recover the final state.
	plan := rig.ckpt.Plan()
	for _, node := range []int{plan.DataNodes[1], plan.ParityNodes[0]} {
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
	if lrep.Version != 6 {
		t.Errorf("recovered version %d, want 6", lrep.Version)
	}
	dictsEqual(t, current, got)
}

// TestIncrementalVolumeTracksChange: the windows a delta ships grow with the
// number of workers whose tensors changed, from none at all.
func TestIncrementalVolumeTracksChange(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	current, shipped := rig.dicts, -1
	for step, ranks := range [][]int{nil, {2}, {0, 4, 7}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		current = mutateSomeTensors(current, ranks, int64(300+step))
		rep, err := rig.ckpt.SaveIncremental(ctx, current)
		if err != nil {
			t.Fatalf("%d changed workers: %v", len(ranks), err)
		}
		if rep.Full || rep.ChangedBuffers <= shipped || rep.ChangedBuffers > rep.TotalBuffers {
			t.Fatalf("%d changed workers shipped %d of %d buffers (full=%v) after %d for fewer",
				len(ranks), rep.ChangedBuffers, rep.TotalBuffers, rep.Full, shipped)
		}
		shipped = rep.ChangedBuffers
	}
}

// TestDeltaRoundIsASaveRound: a delta round is observed exactly like a full
// one. Its flight timeline has the same kinds of event on every node, and
// the SaveReport the engine builds for it partitions the round's wall time
// into the canonical phases (the TestSaveReportPhases invariant). It has one
// name, OpIncremental, on every surface — each of its flight events, its
// health round events and the watchdog's phase history — so a join on (op,
// round) across the event stream and the timeline finds it; only
// save_phase_ns stays keyed "save", because it names the protocol.
func TestDeltaRoundIsASaveRound(t *testing.T) {
	rec := flight.New(4096)
	tracker := health.NewTracker(func() health.Probe { return health.Probe{} })
	var mu sync.Mutex
	var roundEvents []health.Event
	tracker.SetSink(func(ev health.Event) {
		if ev.Kind == health.KindRound && ev.Version == 2 {
			mu.Lock()
			roundEvents = append(roundEvents, ev)
			mu.Unlock()
		}
	})
	reg := obs.NewRegistry()
	rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.Flight = rec
		cfg.Health = tracker
		cfg.Metrics = reg
		cfg.WatchdogFactor = 1000
	}, noRemote)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	h, err := rig.ckpt.startSave(ctx, stampVersion(rig.dicts, 2), saveMode{delta: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.delta || h.shipped == 0 || h.shipped >= h.windows {
		t.Fatalf("round 2: delta=%v shipping %d of %d windows, want a sparse delta", h.delta, h.shipped, h.windows)
	}

	type kind struct {
		typ  flight.EventType
		node int
	}
	kinds := map[int]map[kind]bool{1: {}, 2: {}}
	for _, e := range rec.Snapshot() {
		if kinds[e.Round] != nil {
			kinds[e.Round][kind{e.Type, e.Node}] = true
		}
		if e.Round == 2 && e.Op != OpIncremental {
			t.Errorf("delta round's %v event on node %d is labelled %q, want %q", e.Type, e.Node, e.Op, OpIncremental)
		}
	}
	mu.Lock()
	if len(roundEvents) != 2 {
		t.Errorf("delta round has %d health round events, want start and end", len(roundEvents))
	}
	for _, ev := range roundEvents {
		if ev.Op != OpIncremental {
			t.Errorf("delta round's health %s event is labelled %q, want %q", ev.State, ev.Op, OpIncremental)
		}
	}
	mu.Unlock()
	rig.ckpt.wd.mu.Lock()
	_, watched := rig.ckpt.wd.hist[[2]string{OpIncremental, PhaseP2P}]
	rig.ckpt.wd.mu.Unlock()
	if !watched {
		t.Error("the watchdog has no phase history under the delta round's op")
	}
	if hp, ok := reg.Snapshot().Histogram("save_phase_ns", obs.L("phase", PhaseP2P), obs.L("node", "0")); !ok || hp.Count != 2 {
		t.Errorf("save_phase_ns{p2p,node 0} holds %d observations, want one per round", hp.Count)
	}
	for k := range kinds[1] {
		if !kinds[2][k] {
			t.Errorf("full round has event type %v on node %d, delta round does not", k.typ, k.node)
		}
	}
	for k := range kinds[2] {
		if !kinds[1][k] {
			t.Errorf("delta round has event type %v on node %d, full round does not", k.typ, k.node)
		}
	}

	var sum time.Duration
	for ph, d := range rep.Phases {
		found := false
		for _, want := range SavePhases() {
			found = found || ph == want
		}
		if !found {
			t.Errorf("unexpected phase %q in a delta round's report", ph)
		}
		sum += d
	}
	if ratio := float64(sum) / float64(rep.Elapsed); ratio < 0.90 || ratio > 1.10 {
		t.Errorf("phase sum %v is %.1f%% of elapsed %v (want within 10%%); phases: %v", sum, ratio*100, rep.Elapsed, rep.Phases)
	}
	if len(rep.NodePhases) != 4 || rep.StallNs != rep.Elapsed {
		t.Errorf("NodePhases %d entries, stall %v of %v", len(rep.NodePhases), rep.StallNs, rep.Elapsed)
	}
}

// TestDeltaRoundsWithScatteredWindows gives every worker its own set of
// changed windows, different each round, so the windows of one reduction
// have different contributors and complete out of window order on the fold
// points. The streams are matched to windows by position: parity must still
// equal what a full encode of the data would produce, and recovery through
// the code must return the last state.
func TestDeltaRoundsWithScatteredWindows(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	current := rig.dicts
	for round := 0; round < 6; round++ {
		next := make([]*statedict.StateDict, len(current))
		for rank, sd := range current {
			next[rank] = sd.Clone()
			for _, e := range next[rank].TensorEntries() {
				if data := e.Tensor.Data(); len(data) > 0 && rng.Intn(4) == 0 {
					data[rng.Intn(len(data))] ^= 0x5A
				}
			}
		}
		current = next
		rep, err := rig.ckpt.SaveIncremental(ctx, current)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Full || rep.ChangedBuffers == 0 || rep.ChangedBuffers == rep.TotalBuffers {
			t.Fatalf("round %d: full=%v, %d of %d windows: want a scattered delta", round, rep.Full, rep.ChangedBuffers, rep.TotalBuffers)
		}
		vrep, err := rig.ckpt.VerifyIntegrity()
		if err != nil || len(vrep.CorruptSegments) != 0 {
			t.Fatalf("round %d: parity does not match data: %v, %v", round, err, vrep)
		}
	}
	for _, node := range rig.ckpt.Plan().DataNodes {
		if err := rig.clus.Fail(node); err != nil {
			t.Fatal(err)
		}
		if err := rig.clus.Replace(node); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, current, got)
}

// TestSparseDeltaTouchesOnlyItsSegments counts what a delta round does to the
// payload-sized blobs, on 8 machines × 2 workers with k = m = 4 (32 segments,
// 8 own-packet caches: the workers on the 4 parity machines; the other 8 diff
// against their own data segments): it stages the segments the changed
// workers feed — one data segment and m parity segments each — and the caches
// of those that keep one, and carries the rest of the 40 blobs. It reads the
// 8 segment bases of the snapshot and the committed base of each touched
// segment but the 8 data segments packed in place, which already hold the
// new bytes. Every node still moves to the new version, and the checkpoint
// survives the loss of m machines.
func TestSparseDeltaTouchesOnlyItsSegments(t *testing.T) {
	hook := &storeHook{}
	rig, _ := newWrappedRig(t, 8, 2, 4, 4, func(hs HostStore) HostStore {
		hook.HostStore = hs
		return hook
	}, func(c *Config) {
		c.IncrementalCache = true
		c.Metrics = obs.NewRegistry()
	}, noRemote)
	ctx := context.Background()
	for i := 1; i <= 2; i++ { // the second commit fills the spare sets
		if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, i)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var segsStaged, cachesStaged, basesRead int
	count := func(op string, _ int, key string) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case op == "adopt" && strings.HasPrefix(key, stagePrefix+"chunk/"):
			segsStaged++
		case op == "adopt" && strings.HasPrefix(key, stagePrefix+"own/"):
			cachesStaged++
		case op == "view" && strings.HasPrefix(key, "chunk/"):
			basesRead++
		}
		return nil
	}
	oneTensor := stampVersion(rig.dicts, 2)
	oneTensor[5] = oneTensor[5].Clone()
	oneTensor[5].TensorEntries()[0].Tensor.Data()[0] ^= 0xFF
	if rig.ckpt.lay.keys.base[5].cache {
		t.Fatal("rank 5 keeps an own-packet cache: the counts below assume it diffs against its segment")
	}
	for v, tc := range []struct {
		name                          string
		next                          []*statedict.StateDict
		segs, carried, ownPkts, views int
	}{
		{"one tensor of one rank", oneTensor, 5, 35, 0, 8 + 4},
		{"nothing", oneTensor, 0, 40, 0, 8},
		{"every rank", stampVersion(rig.dicts, 5), 32, 0, 8, 8 + 32 - 8},
	} {
		segsStaged, cachesStaged, basesRead = 0, 0, 0
		carried, allocated := counterOf(rig, "save_segments_carried_total"), counterOf(rig, "save_segments_allocated_total")
		hook.fn.Store(&count)
		rep, err := rig.ckpt.SaveIncremental(ctx, tc.next)
		hook.fn.Store(nil)
		if err != nil || rep.Full || rep.Version != 3*v+3 {
			t.Fatalf("%s changed: %+v, %v", tc.name, rep, err)
		}
		carried, allocated = counterOf(rig, "save_segments_carried_total")-carried, counterOf(rig, "save_segments_allocated_total")-allocated
		if segsStaged != tc.segs || int(carried) != tc.carried || cachesStaged != tc.ownPkts || basesRead != tc.views || allocated != 0 {
			t.Errorf("%s changed: %d segments staged, %d carried, %d own-packets restaged, %d committed segments read, %d allocated; want %d, %d, %d, %d, 0",
				tc.name, segsStaged, carried, cachesStaged, basesRead, allocated, tc.segs, tc.carried, tc.ownPkts, tc.views)
		}
		for node := 0; node < rig.topo.Nodes(); node++ {
			blob, err := rig.ckpt.fetch(node, keyManifest())
			if err != nil {
				t.Fatal(err)
			}
			if got, _, _, err := parseManifest(blob); err != nil || got != rep.Version {
				t.Errorf("%s changed: node %d is at version %d (%v), want %d", tc.name, node, got, err, rep.Version)
			}
		}
		verifyClean(t, rig)
		for _, node := range rig.ckpt.Plan().DataNodes {
			loseNode(t, rig, node)
		}
		got, _, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatalf("%s changed: load after losing m machines: %v", tc.name, err)
		}
		dictsEqual(t, tc.next, got)
		// The repaired data machines hold their segments, the base of their
		// workers, but no spare segments: two full rounds refill the spare sets
		// the next case counts on.
		for i := 0; i < 2; i++ {
			if _, err := rig.ckpt.Save(ctx, tc.next); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncrementalCorruptCacheFallsBackToFull: a cached packet that fails its
// checksum is no delta base. The round that finds it ships every window
// instead — which restages every cache — and the round after it is a delta
// again.
func TestIncrementalCorruptCacheFallsBackToFull(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatal(err)
	}
	const rank = 3
	node, key := rank/rig.topo.GPUsPerNode(), keyOwnPacket(rank)
	if err := rig.clus.Corrupt(node, key, 10); err != nil {
		t.Fatal(err)
	}
	next := mutateSomeTensors(rig.dicts, []int{0}, 2)
	rep, err := rig.ckpt.SaveIncremental(ctx, next)
	if err != nil || !rep.Full || rep.Version != 2 {
		t.Fatalf("delta round over a corrupt cache: %+v, %v; want a full round", rep, err)
	}
	verifyClean(t, rig)
	if _, err := rig.ckpt.fetch(node, key); err != nil {
		t.Errorf("the full round left the corrupt cache in place: %v", err)
	}
	next = mutateSomeTensors(next, []int{rank}, 3)
	if rep, err = rig.ckpt.SaveIncremental(ctx, next); err != nil || rep.Full {
		t.Fatalf("round after the fallback: %+v, %v; want a delta", rep, err)
	}
	for _, node := range rig.ckpt.Plan().DataNodes {
		loseNode(t, rig, node)
	}
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, next, got)
}

// TestNoDeltaBaseRetryReusesItsBlobs: a delta snapshot that finds a corrupt
// cache gives the blobs every node packed in place back to its spare stack
// before the round retries as a full one, so in the steady state the retry
// takes them again and allocates no blob. The corrupt cache is a node's
// second worker's, so that node had packed its first worker too.
func TestNoDeltaBaseRetryReusesItsBlobs(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, noRemote, func(c *Config) {
		c.IncrementalCache = true
		c.Metrics = obs.NewRegistry()
	})
	ctx := context.Background()
	for i := 1; i <= 2; i++ { // the second commit fills the spare stacks
		if _, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, i)); err != nil {
			t.Fatal(err)
		}
	}
	g := rig.topo.GPUsPerNode()
	rank := g - 1
	for !rig.ckpt.lay.keys.base[rank].cache {
		rank += g
	}
	if err := rig.clus.Corrupt(rank/g, keyOwnPacket(rank), 10); err != nil {
		t.Fatal(err)
	}
	allocated := counterOf(rig, "save_segments_allocated_total")
	next := stampVersion(rig.dicts, 3)
	rep, err := rig.ckpt.SaveIncremental(ctx, next)
	if err != nil || !rep.Full {
		t.Fatalf("delta round over a corrupt cache: %+v, %v; want a full round", rep, err)
	}
	if now := counterOf(rig, "save_segments_allocated_total"); now != allocated {
		t.Errorf("the retried round allocated %d blobs, want none", now-allocated)
	}
	verifyClean(t, rig)
	got, _, err := rig.ckpt.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, next, got)
}

// TestDeltaRoundDoesNotLaunderCorruption: a delta round never reseals bytes it
// did not verify. A flipped byte in a segment it carries is still there, and
// still detected, after the commit; a flipped byte in the base of a parity
// segment it touches fails the round, which leaves host memory as it found
// it; a flipped byte in a worker's own data segment — its delta base — makes
// the round a full one, which rewrites the segment from live state.
func TestDeltaRoundDoesNotLaunderCorruption(t *testing.T) {
	rig := incrementalRig(t)
	ctx := context.Background()
	committed := stampVersion(rig.dicts, 2)
	for _, dicts := range [][]*statedict.StateDict{rig.dicts, committed} {
		if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 0 is segment 0 of data chunk 0, stored on its own node: a round
	// that changes it alone touches segment 0 of that chunk and of the parity
	// chunks, and carries their segment 1. No snapshot reads a parity
	// segment; the drain reads the base of each one it touches.
	plan := rig.ckpt.Plan()
	parity := plan.ChunkOwner(0, plan.K)

	if err := rig.clus.Corrupt(parity, keySegment(plan.K, 1), 7); err != nil {
		t.Fatal(err)
	}
	next := stampRank(committed, 0, 3)
	if rep, err := rig.ckpt.SaveIncremental(ctx, next); err != nil || rep.Full {
		t.Fatalf("delta round carrying a corrupt segment: %+v, %v", rep, err)
	}
	committed = next
	if _, err := rig.ckpt.fetch(parity, keySegment(plan.K, 1)); !errors.Is(err, cluster.ErrChecksum) {
		t.Fatalf("the carried segment reads %v after the round, want its checksum mismatch", err)
	}
	vr, err := rig.ckpt.VerifyIntegrity()
	if err != nil || len(vr.CorruptSegments) != 1 || vr.CorruptSegments[0] != 1 {
		t.Fatalf("VerifyIntegrity after the round: %+v, %v; want segment 1 named", vr, err)
	}
	got, lrep, err := rig.ckpt.Load(ctx)
	if err != nil || len(lrep.CorruptedChunks) != 1 || lrep.CorruptedChunks[0] != plan.K {
		t.Fatalf("load: %+v, %v; want chunk %d rebuilt", lrep, err, plan.K)
	}
	dictsEqual(t, committed, got)
	verifyClean(t, rig)

	if err := rig.clus.Corrupt(parity, keySegment(plan.K, 0), 7); err != nil {
		t.Fatal(err)
	}
	before := storedSlices(t, rig)
	if _, err := rig.ckpt.SaveIncremental(ctx, stampRank(committed, 0, 4)); !errors.Is(err, cluster.ErrChecksum) {
		t.Fatalf("delta round over a corrupt base: %v, want it to fail on the checksum", err)
	}
	if v := rig.ckpt.Version(); v != 3 {
		t.Errorf("version %d after the failed round, want 3", v)
	}
	after := storedSlices(t, rig)
	for key, blob := range after {
		if strings.Contains(key, stagePrefix) || before[key] != blob {
			t.Errorf("the failed round left %s staged or replaced", key)
		}
	}
	if len(after) != len(before) {
		t.Errorf("the failed round left %d stored blobs of %d", len(after), len(before))
	}
	if got, _, err = rig.ckpt.Load(ctx); err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, committed, got)

	owner := plan.ChunkOwner(0, 0)
	if err := rig.clus.Corrupt(owner, keySegment(0, 0), 7); err != nil {
		t.Fatal(err)
	}
	next = stampRank(committed, 0, 4)
	if rep, err := rig.ckpt.SaveIncremental(ctx, next); err != nil || !rep.Full || rep.Version != 4 {
		t.Fatalf("delta round over a corrupt own segment: %+v, %v; want a full round", rep, err)
	}
	verifyClean(t, rig)
	if got, _, err = rig.ckpt.Load(ctx); err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, next, got)
}

// changedWindows lists the buffer windows in which rank's packet differs
// between two checkpoint contents: the windows a delta round from a to b
// ships for that rank, and lands in its segments.
func changedWindows(t *testing.T, rig *testRig, a, b []*statedict.StateDict, rank int) []int {
	t.Helper()
	packet := func(sd *statedict.StateDict) []byte {
		dec, err := sd.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(dec.TensorData, nil)
	}
	pa, pb := packet(a[rank]), packet(b[rank])
	window := rig.ckpt.cfg.BufferSize
	var out []int
	for lo := 0; lo < len(pa); lo += window {
		hi := min(lo+window, len(pa))
		if !bytes.Equal(pa[lo:hi], pb[lo:hi]) {
			out = append(out, lo/window)
		}
	}
	return out
}

// TestDeltaRoundCorruptionAtWindowGranularity: a blob carries one checksum
// per buffer window and a delta round verifies exactly the base windows it
// uses. One flipped byte — in a window's bytes or in its sum in the footer —
// is found by whichever read uses that window, and outlives a round that
// does not use it:
//   - a segment-based rank's own base, in a window its change leaves alone:
//     the snapshot's exact compare sees the window differ from the live
//     packet, its sum refuses it as a delta base, and the round is a full
//     one that rewrites the segment from live state;
//   - a window of a touched segment that nothing lands in — a cache-based
//     rank's data segment, a parity segment, or the sum of such a window:
//     the round is a delta that keeps the window's old sum, so the blob
//     still fails its checksum, VerifyIntegrity names the segment, and Load
//     rebuilds the chunk byte for byte;
//   - a window a delta lands in, or its sum: the round fails on the checksum
//     and leaves host memory slice for slice as it found it.
func TestDeltaRoundCorruptionAtWindowGranularity(t *testing.T) {
	const (
		full    = "full"    // the round falls back to shipping every window
		carried = "carried" // a delta round; the corrupt window survives it
		refused = "refused" // the round fails on the checksum
	)
	for _, tc := range []struct {
		name   string
		cache  bool // the changed rank keeps an own-packet cache
		parity bool // the flip is in the parity segment, not the data one
		landed bool // the flipped window is one the change lands in
		footer bool // the flip is in the window's sum, not its bytes
		want   string
	}{
		{"own base/unchanged window", false, false, false, false, full},
		{"cached rank's data segment/unlanded window", true, false, false, false, carried},
		{"parity/unlanded window", false, true, false, false, carried},
		{"parity/landed window", false, true, true, false, refused},
		{"parity/unlanded window's sum", false, true, false, true, carried},
		{"parity/landed window's sum", false, true, true, true, refused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := incrementalRig(t)
			ctx := context.Background()
			committed := stampVersion(rig.dicts, 2)
			for _, dicts := range [][]*statedict.StateDict{rig.dicts, committed} {
				if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
					t.Fatal(err)
				}
			}
			plan, keys := rig.ckpt.Plan(), &rig.ckpt.lay.keys
			rank := 0
			for keys.base[rank].cache != tc.cache {
				rank++
			}
			next := stampRank(committed, rank, 3)
			changed := changedWindows(t, rig, committed, next, rank)
			window := changed[0]
			if !tc.landed {
				for window = 0; slices.Contains(changed, window); window++ {
				}
			}
			blob, err := rig.ckpt.fetch(0, keyManifest())
			if err != nil {
				t.Fatal(err)
			}
			_, packetBytes, bufSize, err := parseManifest(blob)
			if err != nil {
				t.Fatal(err)
			}
			if window >= rig.ckpt.numBuffers(packetBytes) {
				t.Fatalf("rank %d changes all %d windows of its packet", rank, window)
			}
			cg, chunk, seg := plan.GroupOfRank(rank), plan.DataGroupOf[rank], plan.SegmentOf[rank]
			if tc.parity {
				chunk = plan.K
			}
			node, key := plan.ChunkOwner(cg, chunk), keySegment(chunk, seg)
			offset := window*bufSize + 1
			if tc.footer {
				offset = packetBytes + window*cluster.SumLen + 1
			}
			if err := rig.clus.Corrupt(node, key, offset); err != nil {
				t.Fatal(err)
			}
			before := storedSlices(t, rig)
			rep, err := rig.ckpt.SaveIncremental(ctx, next)
			switch tc.want {
			case full:
				if err != nil || !rep.Full || rep.Version != 3 {
					t.Fatalf("round: %+v, %v; want a full round", rep, err)
				}
				verifyClean(t, rig)
			case carried:
				if err != nil || rep.Full || rep.Version != 3 {
					t.Fatalf("round: %+v, %v; want a delta", rep, err)
				}
				if _, err := rig.ckpt.fetch(node, key); !errors.Is(err, cluster.ErrChecksum) {
					t.Fatalf("the touched segment reads %v after the round, want its checksum mismatch", err)
				}
				vr, err := rig.ckpt.VerifyIntegrity()
				if id := cg*plan.Span() + seg; err != nil || !slices.Equal(vr.CorruptSegments, []int{id}) {
					t.Fatalf("VerifyIntegrity after the round: %+v, %v; want segment %d named", vr, err, id)
				}
			case refused:
				if !errors.Is(err, cluster.ErrChecksum) {
					t.Fatalf("round: %+v, %v; want it to fail on the checksum", rep, err)
				}
				if v := rig.ckpt.Version(); v != 2 {
					t.Errorf("version %d after the failed round, want 2", v)
				}
				after := storedSlices(t, rig)
				for key, blob := range after {
					if strings.Contains(key, stagePrefix) || before[key] != blob {
						t.Errorf("the failed round left %s staged or replaced", key)
					}
				}
				if len(after) != len(before) {
					t.Errorf("the failed round left %d stored blobs of %d", len(after), len(before))
				}
				next = committed
			}
			got, lrep, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == carried && !slices.Equal(lrep.CorruptedChunks, []int{chunk}) {
				t.Errorf("load rebuilt %v, want chunk %d", lrep.CorruptedChunks, chunk)
			}
			dictsEqual(t, next, got)
			if tc.want != refused {
				verifyClean(t, rig)
			}
		})
	}
}

// requireOneCopy walks every node's keys. No node holds an own-packet cache
// but the caches of its own workers whose data chunk is stored on another
// machine: a worker whose data chunk is stored on its own node diffs against
// that chunk's segment, and no round, restore or membership step may leave a
// twin of it. When granted, every worker's delta base is on its node, the
// cache-based ones' caches included, and the engine grants the delta.
func requireOneCopy(t *testing.T, rig *testRig, when string, packetBytes int, granted bool) {
	t.Helper()
	plan, g := rig.ckpt.Plan(), rig.topo.GPUsPerNode()
	// base is where rank w's packet as committed must be on its node, and
	// whether that is a cache: the plan decides, not the engine's key table.
	base := func(w int) (string, bool) {
		j := plan.DataGroupOf[w]
		if plan.ChunkOwner(plan.GroupOfRank(w), j) == w/g {
			return keySegment(j, plan.SegmentOf[w]), false
		}
		return keyOwnPacket(w), true
	}
	for node := 0; node < rig.topo.Nodes(); node++ {
		for _, key := range rig.clus.Keys(node) {
			if !strings.Contains(key, "own/") {
				continue
			}
			mine := false
			for w := node * g; w < (node+1)*g; w++ {
				cache, cached := base(w)
				mine = mine || (cached && key == cache)
			}
			if !mine {
				t.Errorf("%s: node %d holds %q, not the cache of a worker of its own whose data chunk is elsewhere", when, node, key)
			}
		}
	}
	if !granted {
		return
	}
	for w := 0; w < rig.topo.World(); w++ {
		if key, _ := base(w); !rig.clus.Has(w/g, key) {
			t.Errorf("%s: rank %d's delta base %q is not on node %d", when, w, key, w/g)
		}
	}
	if !rig.ckpt.deltaBase(packetBytes) {
		t.Errorf("%s: the engine refuses a delta", when)
	}
}

// TestOneCopyOfEachPacketPerMachine: after every kind of round — Save,
// SaveIncremental, Load, a drained leave joined back from custody, a crash
// leave of a data and of a parity slot rebuilt in place — no machine holds a
// second copy of a packet it stores as a data segment, and the delta bases
// are whole wherever a delta is granted. Only the crash-joined parity slot
// loses its workers' caches, and the round after it is a full one that
// restages them.
func TestOneCopyOfEachPacketPerMachine(t *testing.T) {
	for _, shape := range []struct {
		name              string
		nodes, gpus, k, m int
	}{{"4x(2+2)", 4, 2, 2, 2}, {"8x(4+4)", 8, 2, 4, 4}, {"2x(2+2)", 8, 2, 2, 2}} {
		t.Run(shape.name, func(t *testing.T) {
			// A model a quarter of the default rig's: the walk counts keys, not bytes.
			topo, err := parallel.NewTopology(shape.nodes, shape.gpus, shape.gpus, shape.nodes)
			if err != nil {
				t.Fatal(err)
			}
			buildOpt := model.NewBuildOptions()
			buildOpt.Scale = 128
			dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt)
			if err != nil {
				t.Fatal(err)
			}
			net, err := transport.NewMemory(shape.nodes)
			if err != nil {
				t.Fatal(err)
			}
			rig := newRigOn(t, net, dicts, shape.nodes, shape.gpus, shape.k, shape.m, func(c *Config) {
				c.IncrementalCache = true
				c.BufferSize = 16 << 10
			}, noRemote)
			ctx := context.Background()
			plan := rig.ckpt.Plan()
			rep, err := rig.ckpt.Save(ctx, stampVersion(rig.dicts, 1))
			if err != nil {
				t.Fatal(err)
			}
			packet := rep.PacketBytes
			requireOneCopy(t, rig, "Save", packet, true)

			v := 1
			delta := func(when string, full bool) {
				t.Helper()
				v++
				next := stampRank(stampVersion(rig.dicts, v-1), v%rig.topo.World(), v)
				rep, err := rig.ckpt.SaveIncremental(ctx, next)
				if err != nil || rep.Full != full || rep.Version != v {
					t.Fatalf("%s: SaveIncremental %+v, %v; want full=%v at version %d", when, rep, err, full, v)
				}
				requireOneCopy(t, rig, when+", SaveIncremental", packet, true)
				got, _, err := rig.ckpt.Load(ctx)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				dictsEqual(t, next, got)
				requireOneCopy(t, rig, when+", Load", packet, true)
			}
			delta("after Save", false)

			for _, node := range []int{plan.DataNodes[0], plan.ParityNodes[0]} {
				drep, err := rig.ckpt.DrainNode(ctx, node)
				if err != nil || !drep.Completed {
					t.Fatalf("drain node %d: %+v, %v", node, drep, err)
				}
				loseNode(t, rig, node)
				if join, err := rig.ckpt.RepairNode(ctx, node); err != nil || !join.Restored {
					t.Fatalf("join node %d: %+v, %v", node, join, err)
				}
				requireOneCopy(t, rig, "custody join", packet, true)
				delta("after a custody join", false)
			}

			for _, slot := range []struct {
				node int
				kept bool
			}{{plan.DataNodes[0], true}, {plan.ParityNodes[0], false}} {
				loseNode(t, rig, slot.node)
				if join, err := rig.ckpt.RepairNode(ctx, slot.node); err != nil || join.Restored || join.Rebuilt == nil {
					t.Fatalf("crash join of node %d: %+v, %v", slot.node, join, err)
				}
				requireOneCopy(t, rig, "crash join", packet, slot.kept)
				delta("after a crash join", !slot.kept)
			}
		})
	}
}

// TestCrashJoinedDataSlotKeepsDeltaBase: the join that rebuilds a data slot
// lost without a drain rebuilds its workers' delta bases with it — their data
// segments — so the next SaveIncremental is a delta. A parity slot's workers
// diff against caches, which no rebuild restores: the next one is full.
func TestCrashJoinedDataSlotKeepsDeltaBase(t *testing.T) {
	for _, slot := range []struct {
		name string
		node func(*placement.Plan) int
		full bool
	}{
		{"data", func(p *placement.Plan) int { return p.DataNodes[0] }, false},
		{"parity", func(p *placement.Plan) int { return p.ParityNodes[0] }, true},
	} {
		t.Run(slot.name, func(t *testing.T) {
			rig := incrementalRig(t)
			ctx := context.Background()
			if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
				t.Fatal(err)
			}
			node := slot.node(rig.ckpt.Plan())
			loseNode(t, rig, node)
			if join, err := rig.ckpt.RepairNode(ctx, node); err != nil || join.Restored || join.Rebuilt == nil {
				t.Fatalf("crash join of node %d: %+v, %v", node, join, err)
			}
			next := mutateSomeTensors(rig.dicts, []int{0, 3}, 2)
			rep, err := rig.ckpt.SaveIncremental(ctx, next)
			if err != nil || rep.Full != slot.full {
				t.Fatalf("SaveIncremental after the crash join: %+v, %v; want full=%v", rep, err, slot.full)
			}
			verifyClean(t, rig)
			got, _, err := rig.ckpt.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			dictsEqual(t, next, got)
		})
	}
}
