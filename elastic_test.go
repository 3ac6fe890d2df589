package eccheck_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"eccheck"
	"eccheck/internal/obs/flight"
)

// elasticSystem wires a chaos-enabled, flight-recorded system for the
// membership tests. Incremental toggles the per-node packet caches so
// custody transfers cover them too.
func elasticSystem(t *testing.T, incremental bool, plan *eccheck.ChaosPlan) (*eccheck.System, []*eccheck.StateDict) {
	t.Helper()
	if plan == nil {
		plan = &eccheck.ChaosPlan{Seed: 11}
	}
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:        4,
		GPUsPerNode:  2,
		TPDegree:     2,
		PPStages:     4,
		K:            2,
		M:            2,
		BufferSize:   16 << 10,
		Incremental:  incremental,
		Chaos:        plan,
		OpTimeout:    5 * time.Second,
		FlightEvents: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	opt := eccheck.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 42
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dicts
}

func corruptionEvents(sys *eccheck.System) int {
	n := 0
	for _, ev := range sys.FlightRecorder().Snapshot() {
		if ev.Type == flight.EvCorruption {
			n++
		}
	}
	return n
}

func membershipEvents(sys *eccheck.System, op string) int {
	n := 0
	for _, ev := range sys.FlightRecorder().Snapshot() {
		if ev.Type == flight.EvMembership && ev.Op == op {
			n++
		}
	}
	return n
}

// The headline guarantee: a preemption with sufficient notice drains the
// doomed node's blobs to a custodian, the joiner gets them back verbatim,
// and the next Load is a pure replacement round — ZERO erasure rebuilds,
// zero corruption-as-erasure events, full fault tolerance restored the
// moment AddNode returns.
func TestPreemptWithNoticeLoadsWithZeroRebuilds(t *testing.T) {
	sys, dicts := elasticSystem(t, true, nil)
	ctx := context.Background()

	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	victim := sys.DataNodes()[0]

	rep, err := sys.PreemptNode(ctx, victim, 30*time.Second)
	if err != nil {
		t.Fatalf("PreemptNode: %v", err)
	}
	if !rep.Completed {
		t.Fatalf("drain not completed with generous notice: %+v", rep)
	}
	if rep.Custodian < 0 || rep.Custodian == victim {
		t.Fatalf("bad custodian %d", rep.Custodian)
	}
	if rep.Blobs == 0 || rep.BytesMoved == 0 {
		t.Fatalf("drain moved nothing: %+v", rep)
	}
	if sys.FaultTolerance() >= 2 {
		t.Fatalf("FaultTolerance = %d with a dead slot", sys.FaultTolerance())
	}
	if got := membershipEvents(sys, "drain"); got != 1 {
		t.Fatalf("drain events = %d, want 1", got)
	}

	join, err := sys.AddNode(ctx, victim)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if !join.Restored || join.Custodian != rep.Custodian {
		t.Fatalf("join did not restore from custody: %+v", join)
	}
	if join.Rebuilt != nil {
		t.Fatalf("custody restore must not rebuild anything: %+v", join)
	}
	if join.Blobs != rep.Blobs || join.BytesMoved != rep.BytesMoved {
		t.Fatalf("restore moved %d blobs/%d bytes, drain moved %d/%d",
			join.Blobs, join.BytesMoved, rep.Blobs, rep.BytesMoved)
	}
	// Full tolerance is back BEFORE any Load: the blobs are in place.
	if sys.FaultTolerance() != 2 {
		t.Fatalf("FaultTolerance = %d after restore, want 2", sys.FaultTolerance())
	}

	got, lrep, err := sys.Load(ctx)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(lrep.MissingChunks) != 0 {
		t.Fatalf("Load rebuilt chunks %v after a completed drain", lrep.MissingChunks)
	}
	if lrep.Workflow != "replacement" {
		t.Fatalf("workflow = %q, want replacement", lrep.Workflow)
	}
	if n := corruptionEvents(sys); n != 0 {
		t.Fatalf("%d corruption-as-erasure events after a clean drain", n)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Fatalf("rank %d: recovered dict differs", rank)
		}
	}
	// The custody transfer carried the incremental packet caches too, so
	// the next SaveIncremental must not fall back to a full save.
	irep, err := sys.SaveIncremental(ctx, dicts)
	if err != nil {
		t.Fatalf("SaveIncremental: %v", err)
	}
	if irep.Full {
		t.Fatal("SaveIncremental fell back to a full save: custody lost the packet caches")
	}
}

// requireWholeAfterJoin is the contract of a crash join, checked immediately
// after AddNode returned: the lost chunk was rebuilt in place, so the margin
// is back at m, placement is what Initialize compiled, and the following Load
// rebuilds nothing.
func requireWholeAfterJoin(t *testing.T, sys *eccheck.System, dicts []*eccheck.StateDict, join *eccheck.JoinReport, dataNodes []int) {
	t.Helper()
	if join.Restored {
		t.Fatal("nothing was drained; join cannot restore")
	}
	if join.Rebuilt == nil || join.Rebuilt.AlreadyIntact || join.Rebuilt.Segments == 0 {
		t.Fatalf("crash join must rebuild the lost chunk in place: %+v", join.Rebuilt)
	}
	if sys.FaultTolerance() != 2 {
		t.Fatalf("FaultTolerance = %d when AddNode returned, want 2", sys.FaultTolerance())
	}
	if got := sys.DataNodes(); !reflect.DeepEqual(got, dataNodes) {
		t.Fatalf("a join moved the data nodes: %v -> %v", dataNodes, got)
	}
	got, lrep, err := sys.Load(context.Background())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(lrep.MissingChunks) != 0 {
		t.Fatalf("Load after the join rebuilt chunks %v", lrep.MissingChunks)
	}
	wantDicts(t, dicts, got)
}

// Zero notice is a plain crash: nothing drains, and the join rebuilds the
// lost chunk in place through the erasure code — the slot is whole, on the
// data duty it always had, when AddNode returns.
func TestZeroNoticeRecoversViaRebuild(t *testing.T) {
	sys, dicts := elasticSystem(t, false, nil)
	ctx := context.Background()

	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	dataNodes := sys.DataNodes()
	victim := dataNodes[0]
	rep, err := sys.PreemptNode(ctx, victim, 0)
	if err != nil {
		t.Fatalf("PreemptNode(0): %v", err)
	}
	if rep.Completed {
		t.Fatalf("zero-notice drain reported completed: %+v", rep)
	}

	join, err := sys.AddNode(ctx, victim)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	requireWholeAfterJoin(t, sys, dicts, join, dataNodes)
}

// A notice too short for the transfer: the deadline kills the node
// mid-drain, the partial custody copy is discarded, and the join falls
// back to the erasure rebuild — the crash-only path, now with a
// postmortem attached to the drain report.
func TestNoticeExpiresMidDrainDegradesToRebuild(t *testing.T) {
	// 3ms per send × ~40 blob/flag sends for the drained node's blob set
	// dwarfs the 25ms notice, so the kill always lands mid-transfer.
	sys, dicts := elasticSystem(t, false, &eccheck.ChaosPlan{Seed: 13, Latency: 3 * time.Millisecond})
	ctx := context.Background()

	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	dataNodes := sys.DataNodes()
	victim := dataNodes[0]
	rep, err := sys.PreemptNode(ctx, victim, 25*time.Millisecond)
	if err != nil {
		t.Fatalf("PreemptNode: %v", err)
	}
	if rep.Completed {
		t.Fatalf("drain completed despite an impossible deadline: %+v", rep)
	}
	if rep.Reason == "" {
		t.Fatal("degraded drain carries no reason")
	}
	if got := membershipEvents(sys, "drain_failed"); got != 1 {
		t.Fatalf("drain_failed events = %d, want 1", got)
	}

	join, err := sys.AddNode(ctx, victim)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	requireWholeAfterJoin(t, sys, dicts, join, dataNodes)
}

// RemoveNode is the unbounded graceful leave; a parity slot drains and
// restores just like a data slot.
func TestRemoveAndAddParityNode(t *testing.T) {
	sys, dicts := elasticSystem(t, false, nil)
	ctx := context.Background()
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	victim := sys.ParityNodes()[0]
	rep, err := sys.RemoveNode(ctx, victim)
	if err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if !rep.Completed {
		t.Fatalf("unbounded drain failed: %+v", rep)
	}
	join, err := sys.AddNode(ctx, victim)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if !join.Restored || join.Rebuilt != nil {
		t.Fatalf("parity rejoin: %+v", join)
	}
	if sys.FaultTolerance() != 2 {
		t.Fatalf("FaultTolerance = %d, want 2", sys.FaultTolerance())
	}
	if _, lrep, err := sys.Load(ctx); err != nil || len(lrep.MissingChunks) != 0 {
		t.Fatalf("Load: %v, missing %v", err, lrep.MissingChunks)
	}
}

// ReplaceNode is fenced behind the save slot: when it returns during an
// async drain, that drain has fully finished (committed or aborted) — the
// membership change can never interleave with a round.
func TestReplaceNodeFencedBehindAsyncSave(t *testing.T) {
	// Link latency stretches the async drain to a fat window an unfenced
	// ReplaceNode would land inside.
	sys, dicts := elasticSystem(t, false, &eccheck.ChaosPlan{Seed: 29, Latency: 2 * time.Millisecond})
	ctx := context.Background()
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	h, err := sys.SaveAsync(ctx, dicts)
	if err != nil {
		t.Fatal(err)
	}
	victim := sys.ParityNodes()[1]
	if err := sys.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := sys.ReplaceNode(victim); err != nil {
		t.Fatalf("ReplaceNode: %v", err)
	}
	// complete() runs a few instructions after the drain frees the slot;
	// give the drain goroutine one beat, but no longer — an unfenced
	// ReplaceNode would land mid-drain with hundreds of ms still to go.
	select {
	case <-h.Done():
	case <-time.After(20 * time.Millisecond):
		t.Fatal("ReplaceNode returned while the async drain was still in flight")
	}
	// Whatever the drain's fate (commit, or abort because the victim died
	// mid-round), the system must still recover.
	if _, _, err := sys.Load(ctx); err != nil {
		t.Fatalf("Load after fenced replace: %v", err)
	}
}

// Membership operations racing saves, loads and each other must never
// deadlock or corrupt state; individual operations may fail (a save
// cannot run with a dead node) but the system always recovers once the
// churn stops. Run under -race via `make chaos-soak`.
func TestChaosSoakMembershipChurn(t *testing.T) {
	sys, dicts := elasticSystem(t, false, &eccheck.ChaosPlan{Seed: 17})
	ctx := context.Background()
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}

	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Background saver/loader: hammer the round API while membership
	// churns underneath. Errors are expected (dead nodes, fenced slots);
	// panics, races and deadlocks are not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = sys.Save(ctx, dicts)
			_, _, _ = sys.Load(ctx)
		}
	}()

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < rounds; i++ {
		victim := rng.Intn(4)
		notice := time.Duration(rng.Intn(40)) * time.Millisecond
		octx, cancel := context.WithTimeout(ctx, 10*time.Second)
		if _, err := sys.PreemptNode(octx, victim, notice); err != nil {
			// Busy slot (already draining/dead) — fine under churn.
			cancel()
			continue
		}
		_, _ = sys.AddNode(octx, victim)
		cancel()
	}
	close(stop)
	wg.Wait()

	// Quiesce: refill any slot the churn left dead, then the system must
	// save and recover cleanly.
	alive := map[int]bool{}
	for _, n := range sys.AliveNodes() {
		alive[n] = true
	}
	for n := 0; n < 4; n++ {
		if !alive[n] {
			if _, err := sys.AddNode(ctx, n); err != nil {
				t.Fatalf("AddNode(%d) during quiesce: %v", n, err)
			}
		}
	}
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatalf("Save after churn: %v", err)
	}
	got, _, err := sys.Load(ctx)
	if err != nil {
		t.Fatalf("Load after churn: %v", err)
	}
	for rank := range dicts {
		if !dicts[rank].Equal(got[rank]) {
			t.Fatalf("rank %d: dict differs after churn", rank)
		}
	}
	if sys.FaultTolerance() != 2 {
		t.Fatalf("FaultTolerance = %d after quiesce, want 2", sys.FaultTolerance())
	}
}

// Close racing an in-flight preemption drain must abort it promptly and
// leave no goroutine wedged on the save slot.
func TestCloseAbortsInFlightDrain(t *testing.T) {
	sys, dicts := elasticSystem(t, false, &eccheck.ChaosPlan{Seed: 19, Latency: 2 * time.Millisecond})
	ctx := context.Background()
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatal(err)
	}
	victim := sys.DataNodes()[1]
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = sys.PreemptNode(ctx, victim, 30*time.Second)
	}()
	// Tear the system down once the drain holds the save slot and ships.
	for membershipEvents(sys, "drain_begin") == 0 {
		select {
		case <-done:
			t.Fatal("PreemptNode returned before its drain began")
		default:
			runtime.Gosched()
		}
	}
	_ = sys.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("PreemptNode wedged across Close")
	}
}
