package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/obs/flight"
	"eccheck/internal/statedict"
)

func incrementalRig(t *testing.T) *testRig {
	t.Helper()
	return newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
	})
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
// into the canonical phases (the TestSaveReportPhases invariant).
func TestDeltaRoundIsASaveRound(t *testing.T) {
	rec := flight.New(4096)
	rig := newRig(t, 4, 2, 2, 2, func(cfg *Config) {
		cfg.IncrementalCache = true
		cfg.RemotePersistEvery = -1
		cfg.Flight = rec
	})
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
		if e.Op == "save" && kinds[e.Round] != nil {
			kinds[e.Round][kind{e.Type, e.Node}] = true
		}
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
