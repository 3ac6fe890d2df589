package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"eccheck/internal/chaos"
	"eccheck/internal/model"
	"eccheck/internal/obs"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
)

// saveKinds are the three entries into the one save engine, the last one
// twice: over contents that change every worker's packet, and (oneRank) over
// contents that change one worker's, so most segments are carried. Each runs
// one round to completion and returns its error.
var saveKinds = []struct {
	name    string
	oneRank bool
	run     func(ctx context.Context, c *Checkpointer, dicts []*statedict.StateDict) error
}{
	{"Save", false, func(ctx context.Context, c *Checkpointer, dicts []*statedict.StateDict) error {
		_, err := c.Save(ctx, dicts)
		return err
	}},
	{"SaveAsync", false, func(ctx context.Context, c *Checkpointer, dicts []*statedict.StateDict) error {
		h, err := c.SaveAsync(ctx, dicts)
		if err != nil {
			return err
		}
		_, err = h.Wait(ctx)
		return err
	}},
	{"SaveIncremental", false, saveIncremental},
	{"SaveIncrementalOneRank", true, saveIncremental},
}

func saveIncremental(ctx context.Context, c *Checkpointer, dicts []*statedict.StateDict) error {
	_, err := c.SaveIncremental(ctx, dicts)
	return err
}

// TestCrashSweep enumerates the crash points of a round instead of sampling
// them, on the flat layout (4 machines, one 2+2 code group) and, as
// TestCrashSweep/Grouped, on a 2-group one (8 machines as 2 × (2+2)): the
// victims sit in group 0, and recovery checks every rank of both groups.
func TestCrashSweep(t *testing.T) {
	crashSweep(t, 4, 2)
	t.Run("Grouped", func(t *testing.T) { crashSweep(t, 8, 1) })
}

// crashSweep runs every row on one layout. For each kind of round it runs the
// round once to count the victim's sends N, then re-runs it once per i in
// [0, N] with the victim killed at its (i+1)-th send (i = N: no kill),
// replaces the machine, recovers, and checks the one invariant: Load returns
// the new version or the previous one, byte-identical to what was saved
// under that version — never a mixture — and no staged key is left anywhere.
// Then one more round of the same kind runs on the same cluster and its
// bytes are checked too: whatever the aborted round left in the mailboxes
// must not reach it.
//
// Consecutive contents differ in two windows of every worker's packet
// (stampVersion), so the SaveIncremental row exercises a real delta that
// touches every segment. The SaveIncrementalOneRank row changes those two
// windows of one worker only — the victim's first, so the victim's sends
// include the delta's windows — and the round carries every segment and cache
// that worker does not feed: a crash leaves the carried blobs, the restaged
// ones and the manifests on one version, and a committed round leaves the
// spare sets whole (the full round after it allocates no segment).
// Two versions are committed before the swept round, so it assembles its
// segments in the buffers the second commit displaced (poisoned under the
// race detector), like every round of a long-running job.
func crashSweep(t *testing.T, nodes, gpus int) {
	const victim = 1
	const v0 = 2 // the committed version when the swept round starts
	ctx := context.Background()
	// One set of contents for every rig (rounds only read them): 1.1 MB over
	// eight workers in 16 KiB windows, nine windows per packet.
	topo, err := parallel.NewTopology(nodes, gpus, gpus, nodes)
	if err != nil {
		t.Fatal(err)
	}
	buildOpt := model.NewBuildOptions()
	buildOpt.Scale = 64
	buildOpt.Seed = 1234
	dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, buildOpt)
	if err != nil {
		t.Fatal(err)
	}
	stamped := [][]*statedict.StateDict{nil, stampVersion(dicts, 1), stampVersion(dicts, 2), stampVersion(dicts, 3), stampVersion(dicts, 4)}
	oneRank := [][]*statedict.StateDict{stampRank(stamped[v0], victim*gpus, v0+1), stampRank(stamped[v0], victim*gpus, v0+2)}
	setup := func(t *testing.T) (*testRig, *chaos.Network, [][]*statedict.StateDict) {
		rig, net := newChaosRigOver(t, dicts, nodes, gpus, 2, 2, chaos.Plan{Seed: 1}, func(c *Config) {
			c.IncrementalCache = true
			c.BufferSize = 16 << 10
			c.Metrics = obs.NewRegistry()
		})
		contents := append([][]*statedict.StateDict(nil), stamped...)
		for v := 1; v <= v0; v++ {
			if _, err := rig.ckpt.Save(ctx, contents[v]); err != nil {
				t.Fatalf("save v%d: %v", v, err)
			}
		}
		return rig, net, contents
	}
	// recoverAndCheck loads and requires exactly the content saved as the
	// recovered version, on every rank, with the staging areas empty.
	var lastLoad *LoadReport
	recoverAndCheck := func(t *testing.T, rig *testRig, contents [][]*statedict.StateDict, allowed ...int) int {
		t.Helper()
		got, rep, err := rig.ckpt.Load(ctx)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		lastLoad = rep
		ok := false
		for _, v := range allowed {
			ok = ok || rep.Version == v
		}
		if !ok || rep.Version != rig.ckpt.Version() {
			t.Fatalf("recovered version %d (engine says %d), want one of %v", rep.Version, rig.ckpt.Version(), allowed)
		}
		dictsEqual(t, contents[rep.Version], got)
		for node := 0; node < rig.topo.Nodes(); node++ {
			if left := stagedKeys(rig.clus, node); len(left) != 0 {
				t.Errorf("node %d holds staged blobs: %v", node, left)
			}
		}
		return rep.Version
	}

	// settle checks that the round failed exactly when the kill fired, and
	// swaps the dead machine for an empty one.
	settle := func(t *testing.T, rig *testRig, net *chaos.Network, victim, i int, err error) {
		t.Helper()
		if net.Killed(victim) {
			if err == nil {
				t.Fatalf("kill at send %d: the round lost a machine and reported success", i+1)
			}
			if err := rig.clus.Replace(victim); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatalf("kill at send %d never fired, yet the round failed: %v", i+1, err)
		}
		if err := net.Revive(victim); err != nil { // also disarms a kill that never fired
			t.Fatal(err)
		}
	}

	for _, kind := range saveKinds {
		t.Run(kind.name, func(t *testing.T) {
			setup := func(t *testing.T) (*testRig, *chaos.Network, [][]*statedict.StateDict) {
				rig, net, contents := setup(t)
				if kind.oneRank {
					copy(contents[v0+1:], oneRank)
				}
				return rig, net, contents
			}
			rig, net, contents := setup(t)
			before := net.SendCount(victim)
			if err := kind.run(ctx, rig.ckpt, contents[v0+1]); err != nil {
				t.Fatalf("counting round: %v", err)
			}
			sends := net.SendCount(victim) - before
			if sends == 0 {
				t.Fatal("victim sent nothing: nothing to enumerate")
			}
			// One worker feeds its own data segment, the m parity segments of
			// its index and its cache if it keeps one: every other segment and
			// cache is carried.
			blobs, fed := nodes*rig.ckpt.Plan().Span(), 3
			for w, base := range rig.ckpt.lay.keys.base {
				if base.cache {
					blobs++
					if w == victim*gpus {
						fed++
					}
				}
			}
			if carried, want := counterOf(rig, "save_segments_carried_total"), int64(blobs-fed); kind.oneRank && carried != want {
				t.Fatalf("counting round carried %d segments and caches, want %d", carried, want)
			}
			aborted := 0
			for i := 0; i <= sends; i++ {
				rig, net, contents := setup(t)
				if err := net.ScheduleKill(victim, i); err != nil {
					t.Fatal(err)
				}
				err := kind.run(ctx, rig.ckpt, contents[v0+1])
				settle(t, rig, net, victim, i, err)
				if err != nil {
					aborted++
				}
				v := recoverAndCheck(t, rig, contents, v0, v0+1)
				if (err == nil) != (v == v0+1) {
					t.Fatalf("kill at send %d: round error %v but version %d recovered", i+1, err, v)
				}
				// The next round of the same kind commits, and commits the
				// right bytes.
				contents[v+1] = contents[v0+2]
				if err := kind.run(ctx, rig.ckpt, contents[v+1]); err != nil {
					t.Fatalf("kill at send %d: next round: %v", i+1, err)
				}
				recoverAndCheck(t, rig, contents, v+1)
				if vr, err := rig.ckpt.VerifyIntegrity(); err != nil || len(vr.CorruptSegments) != 0 {
					t.Fatalf("kill at send %d: parity does not match data after the next round: %v, %v", i+1, err, vr)
				}
				if kind.oneRank {
					// Two sparse rounds committed on spare sets two full rounds
					// filled: they gave back what they did not use.
					allocated := counterOf(rig, "save_segments_allocated_total")
					contents = append(contents[:v+2], stamped[1])
					if _, err := rig.ckpt.Save(ctx, contents[v+2]); err != nil {
						t.Fatalf("kill at send %d: full round after the sparse ones: %v", i+1, err)
					}
					recoverAndCheck(t, rig, contents, v+2)
					if now := counterOf(rig, "save_segments_allocated_total"); err == nil && now != allocated {
						t.Fatalf("the full round after two committed sparse delta rounds allocated %d segments", now-allocated)
					}
				}
				_ = rig.ckpt.Close()
				_ = net.Close()
				rig.ckpt.Close()
			}
			t.Logf("%d crash points, %d aborted rounds", sends+1, aborted)
			if aborted == 0 {
				t.Error("no kill aborted a round: the sweep enumerated nothing")
			}
		})
	}

	// Restore rounds. One data machine is already lost and replaced when the
	// round starts; the victim — the other data machine, a basis owner of the
	// rebuild in both kinds — is killed at each of its sends in turn. Whatever
	// the dead round left half-landed or in the mailboxes, the recovery after
	// it returns the committed version byte for byte, and the next save
	// commits onto a cluster whose parity matches its data.
	for _, kind := range []struct {
		name string
		run  func(c *Checkpointer, lost int) error
	}{
		{"Load", func(c *Checkpointer, _ int) error {
			_, _, err := c.Load(ctx)
			return err
		}},
		{"PrefetchChunk", func(c *Checkpointer, lost int) error {
			_, err := c.PrefetchChunk(ctx, lost)
			return err
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			degraded := func() (*testRig, *chaos.Network, [][]*statedict.StateDict, int, int) {
				rig, net, contents := setup(t)
				plan := rig.ckpt.Plan()
				loseNode(t, rig, plan.DataNodes[0])
				return rig, net, contents, plan.DataNodes[0], plan.DataNodes[1]
			}
			rig, net, _, lost, victim := degraded()
			before := net.SendCount(victim)
			if err := kind.run(rig.ckpt, lost); err != nil {
				t.Fatalf("counting round: %v", err)
			}
			sends := net.SendCount(victim) - before
			if sends == 0 {
				t.Fatal("victim sent nothing: nothing to enumerate")
			}
			aborted := 0
			for i := 0; i <= sends; i++ {
				rig, net, contents, lost, victim := degraded()
				if err := net.ScheduleKill(victim, i); err != nil {
					t.Fatal(err)
				}
				err := kind.run(rig.ckpt, lost)
				settle(t, rig, net, victim, i, err)
				if err != nil {
					aborted++
				}
				recoverAndCheck(t, rig, contents, v0)
				if _, err := rig.ckpt.Save(ctx, contents[v0+1]); err != nil {
					t.Fatalf("kill at send %d: next save: %v", i+1, err)
				}
				recoverAndCheck(t, rig, contents, v0+1)
				verifyClean(t, rig)
				_ = rig.ckpt.Close()
				_ = net.Close()
			}
			t.Logf("%d crash points, %d aborted rounds", sends+1, aborted)
			if aborted == 0 {
				t.Error("no kill aborted a round: the sweep enumerated nothing")
			}
		})
	}

	// Membership rounds: a drained leave, and the join — the custodian's
	// hand-back, or the in-place rebuild of a slot lost without a drain — each
	// cut at every send of the machine that ships the bytes. Custody is never
	// silently lost, and a join that returns nil leaves the slot whole: no
	// degraded slot, a Load that rebuilds nothing and returns the committed
	// version byte for byte, and a next save that commits onto matching parity.
	afterJoin := func(t *testing.T, rig *testRig, contents [][]*statedict.StateDict, i int) {
		t.Helper()
		if n := rig.ckpt.DegradedSlots(); n != 0 {
			t.Fatalf("kill at send %d: every vacated slot was joined, yet %d slots are degraded", i+1, n)
		}
		recoverAndCheck(t, rig, contents, v0)
		if len(lastLoad.MissingChunks) != 0 {
			t.Fatalf("kill at send %d: load after the join rebuilt chunks %v", i+1, lastLoad.MissingChunks)
		}
		if _, err := rig.ckpt.Save(ctx, contents[v0+1]); err != nil {
			t.Fatalf("kill at send %d: next save: %v", i+1, err)
		}
		recoverAndCheck(t, rig, contents, v0+1)
		verifyClean(t, rig)
	}
	custodyKeys := func(rig *testRig) (left []string) {
		for node := 0; node < nodes; node++ {
			for _, key := range rig.clus.Keys(node) {
				if strings.HasPrefix(key, "custody/") {
					left = append(left, key)
				}
			}
		}
		return left
	}
	t.Run("DrainNode", func(t *testing.T) {
		rig, net, _ := setup(t)
		doomed := rig.ckpt.Plan().DataNodes[0]
		before := net.SendCount(doomed)
		if rep, err := rig.ckpt.DrainNode(ctx, doomed); err != nil || !rep.Completed {
			t.Fatalf("counting round: %+v, %v", rep, err)
		}
		sends := net.SendCount(doomed) - before
		if sends == 0 {
			t.Fatal("the drained node sent nothing: nothing to enumerate")
		}
		aborted := 0
		for i := 0; i <= sends; i++ {
			rig, net, contents := setup(t)
			if err := net.ScheduleKill(doomed, i); err != nil {
				t.Fatal(err)
			}
			rep, err := rig.ckpt.DrainNode(ctx, doomed)
			if (err == nil) != rep.Completed {
				t.Fatalf("kill at send %d: drain error %v with Completed=%v", i+1, err, rep.Completed)
			}
			if err == nil { // the leave itself, once the drain is through
				if ferr := rig.clus.Fail(doomed); ferr != nil {
					t.Fatal(ferr)
				}
			} else {
				aborted++
				if left := custodyKeys(rig); len(left) != 0 {
					t.Fatalf("kill at send %d: failed drain left custody blobs %v", i+1, left)
				}
			}
			settle(t, rig, net, doomed, i, err)
			if err == nil {
				if rerr := rig.clus.Replace(doomed); rerr != nil {
					t.Fatal(rerr)
				}
			}
			join, jerr := rig.ckpt.RepairNode(ctx, doomed)
			if jerr != nil || join.Restored != rep.Completed || (join.Rebuilt == nil) != rep.Completed {
				t.Fatalf("kill at send %d: drain completed=%v, join %+v, %v", i+1, rep.Completed, join, jerr)
			}
			afterJoin(t, rig, contents, i)
			if left := custodyKeys(rig); len(left) != 0 {
				t.Fatalf("kill at send %d: custody blobs outlive the join: %v", i+1, left)
			}
			_ = rig.ckpt.Close()
			_ = net.Close()
		}
		t.Logf("%d crash points, %d aborted drains", sends+1, aborted)
		if aborted == 0 {
			t.Error("no kill aborted a drain: the sweep enumerated nothing")
		}
	})
	// joinSweep cuts the join of a vacated slot at every send of victim, the
	// machine that ships it the bytes. leave vacates the slot and names both.
	joinSweep := func(t *testing.T, custody bool, leave func(rig *testRig) (slot, victim int)) {
		vacated := func() (*testRig, *chaos.Network, [][]*statedict.StateDict, int, int) {
			rig, net, contents := setup(t)
			slot, victim := leave(rig)
			return rig, net, contents, slot, victim
		}
		rig, net, _, slot, victim := vacated()
		before := net.SendCount(victim)
		if join, err := rig.ckpt.RepairNode(ctx, slot); err != nil || join.Restored != custody || (join.Rebuilt == nil) != custody {
			t.Fatalf("counting round: %+v, %v", join, err)
		}
		sends := net.SendCount(victim) - before
		if sends == 0 {
			t.Fatal("the victim sent nothing: nothing to enumerate")
		}
		aborted := 0
		for i := 0; i <= sends; i++ {
			rig, net, contents, slot, victim := vacated()
			if err := net.ScheduleKill(victim, i); err != nil {
				t.Fatal(err)
			}
			join, err := rig.ckpt.RepairNode(ctx, slot)
			settle(t, rig, net, victim, i, err)
			if err != nil {
				// What the victim held — the custody copy, a basis chunk — died
				// with it, and an empty machine took its slot too. Both are crash
				// joins now; the retried one must notice, not hand back an empty
				// set as restored, and each ends whole.
				aborted++
				for _, node := range []int{slot, victim} {
					if join, err = rig.ckpt.RepairNode(ctx, node); err != nil || join.Restored || join.Rebuilt == nil {
						t.Fatalf("kill at send %d: join of node %d after the victim died: %+v, %v", i+1, node, join, err)
					}
				}
			} else if join.Restored != custody {
				t.Fatalf("kill at send %d never fired, yet the join reports %+v", i+1, join)
			}
			afterJoin(t, rig, contents, i)
			if left := custodyKeys(rig); len(left) != 0 {
				t.Fatalf("kill at send %d: custody blobs outlive the join: %v", i+1, left)
			}
			_ = rig.ckpt.Close()
			_ = net.Close()
		}
		t.Logf("%d crash points, %d aborted joins", sends+1, aborted)
		if aborted == 0 {
			t.Error("no kill aborted a join: the sweep enumerated nothing")
		}
	}
	t.Run("AddNode", func(t *testing.T) {
		// The slot left through a completed drain and an empty machine took
		// it; the custodian is killed at each send of the hand-back.
		joinSweep(t, true, func(rig *testRig) (int, int) {
			doomed := rig.ckpt.Plan().DataNodes[0]
			rep, err := rig.ckpt.DrainNode(ctx, doomed)
			if err != nil || !rep.Completed {
				t.Fatalf("drain: %+v, %v", rep, err)
			}
			loseNode(t, rig, doomed)
			return doomed, rep.Custodian
		})
		// The slot — a data chunk's, a parity chunk's — was lost without a
		// drain; a basis owner of the rebuild is killed at each of its sends.
		t.Run("CrashData", func(t *testing.T) {
			joinSweep(t, false, func(rig *testRig) (int, int) {
				plan := rig.ckpt.Plan()
				loseNode(t, rig, plan.DataNodes[0])
				return plan.DataNodes[0], plan.DataNodes[1]
			})
		})
		t.Run("CrashParity", func(t *testing.T) {
			joinSweep(t, false, func(rig *testRig) (int, int) {
				plan := rig.ckpt.Plan()
				loseNode(t, rig, plan.ParityNodes[0])
				return plan.ParityNodes[0], plan.DataNodes[1]
			})
		})
	})
}

// TestCrashSweepLandingOrder is the crash point of a repair that the send
// sweep cannot reach, because there the repaired machine itself survives: a
// node left one version behind, small components intact, whose repair is cut
// after its chunk landed and before its small components did. Landing the
// manifest in between would leave manifest v over small components of v−1
// with every checksum passing — the node would scan as intact and serve the
// old metadata. With the manifest landed last (and the old one removed
// first) a cut repair leaves an erasure, which the next round repairs.
func TestCrashSweepLandingOrder(t *testing.T) {
	hook := &storeHook{}
	rig, clus := newWrappedRig(t, 4, 2, 2, 2, func(hs HostStore) HostStore {
		hook.HostStore = hs
		return hook
	}, noRemote)
	ctx := context.Background()
	contents := [][]*statedict.StateDict{nil, stampVersion(rig.dicts, 1), stampVersion(rig.dicts, 2), stampVersion(rig.dicts, 3)}
	if _, err := rig.ckpt.Save(ctx, contents[1]); err != nil {
		t.Fatal(err)
	}
	stale := rig.ckpt.Plan().DataNodes[0]
	kept := map[string][]byte{}
	for _, key := range clus.Keys(stale) {
		raw, err := clus.Load(stale, key)
		if err != nil {
			t.Fatal(err)
		}
		kept[key] = raw
	}
	if _, err := rig.ckpt.Save(ctx, contents[2]); err != nil {
		t.Fatal(err)
	}
	for key, raw := range kept { // the node is back at version 1, consistently
		if err := clus.Store(stale, key, raw); err != nil {
			t.Fatal(err)
		}
	}

	cut := func(op string, node int, key string) error {
		if op == "adopt" && node == stale && strings.HasPrefix(key, "small/") {
			return errors.New("host memory exhausted")
		}
		return nil
	}
	hook.fn.Store(&cut)
	if _, _, err := rig.ckpt.Load(ctx); err == nil {
		t.Fatal("load whose repair was cut reported success")
	}
	hook.fn.Store(nil)
	got, rep, err := rig.ckpt.Load(ctx)
	if err != nil || rep.Version != 2 {
		t.Fatalf("load after the cut repair: version %d, %v", rep.Version, err)
	}
	dictsEqual(t, contents[2], got)
	verifyClean(t, rig)
	if _, err := rig.ckpt.Save(ctx, contents[3]); err != nil {
		t.Fatalf("next save: %v", err)
	}
	if got, _, err = rig.ckpt.Load(ctx); err != nil {
		t.Fatal(err)
	}
	dictsEqual(t, contents[3], got)
	verifyClean(t, rig)
}
