// Training failover: a long-running hybrid-parallel training loop with
// periodic ECCheck checkpoints, hit by machine failures mid-run. The
// example shows the workload the paper's introduction motivates — losing a
// machine every few hours of large-model training — compressed into
// seconds, and demonstrates the full failure spectrum:
//
//   - a spot-style preemption NOTICE arrives mid-training; the doomed
//     machine drains its checkpoint blobs to a custodian before the kill,
//     the replacement restores them verbatim, and training continues with
//     ZERO erasure rebuilds and no rollback;
//   - plain crashes recover through the replacement and decode workflows;
//   - a notice too short to drain loses the race: the drain report's
//     postmortem timeline shows exactly where the deadline landed, and
//     recovery falls back to the erasure rebuild with a rollback-and-replay.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"eccheck"
)

const (
	iterations   = 40
	ckptInterval = 4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// trainStep mutates every shard deterministically, standing in for an
// optimizer step; the recovery check below depends on reproducibility.
func trainStep(dicts []*eccheck.StateDict, iter int) {
	for rank, sd := range dicts {
		for i, entry := range sd.TensorEntries() {
			data := entry.Tensor.Data()
			idx := (iter*131 + rank*17 + i) % len(data)
			data[idx] ^= byte(iter + rank)
		}
		sd.SetMeta("iteration", eccheck.IntValue(int64(iter)))
	}
}

// printTimeline renders a drain postmortem as an operator-readable
// timeline: one line per event, errors spelled out where they happened.
func printTimeline(events []eccheck.FlightEvent) {
	for _, e := range events {
		line := fmt.Sprintf("    %10s  %-11s", e.TS.Round(10*time.Microsecond), e.Type)
		if e.Node >= 0 {
			line += fmt.Sprintf(" node=%d", e.Node)
		}
		if e.Op != "" {
			line += " " + e.Op
		}
		if e.Tag != "" {
			line += " tag=" + e.Tag
		}
		if e.Bytes > 0 {
			line += fmt.Sprintf(" %dB", e.Bytes)
		}
		if e.Err != "" {
			line += " err=" + e.Err
		}
		fmt.Println(line)
	}
}

type notice struct {
	node     int
	deadline time.Time
}

func run() error {
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:       4,
		GPUsPerNode: 2,
		TPDegree:    2,
		PPStages:    4,
		K:           2,
		M:           2,
		// Persist every 5th checkpoint remotely against catastrophe.
		RemotePersistEvery: 5,
		// Chaos injects the spot reclaim: after node 2's fifth transport
		// send (mid-save, early in the run) the platform announces a
		// 10-second deadline. Link latency makes transfer time visible so
		// the too-short notice below genuinely loses its race.
		Chaos: &eccheck.ChaosPlan{
			Seed:        7,
			Latency:     500 * time.Microsecond,
			Preemptions: []eccheck.ChaosPreemption{{Node: 2, AfterSends: 5, Notice: 10 * time.Second}},
		},
		FlightEvents: 4096,
	})
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()

	// The spot two-minute warning, compressed: the callback runs on a
	// transport goroutine mid-protocol, so it only signals the training
	// loop, which reacts between iterations.
	notices := make(chan notice, 4)
	if err := sys.OnPreemptionNotice(func(node int, deadline time.Time) {
		select {
		case notices <- notice{node, deadline}:
		default:
		}
	}); err != nil {
		return err
	}

	cfg := eccheck.ModelZoo()[1] // GPT-2 5.3B architecture
	opt := eccheck.NewBuildOptions()
	opt.Scale = 64
	opt.Seed = 99
	dicts, err := eccheck.BuildClusterStateDicts(cfg, sys.Topology(), opt)
	if err != nil {
		return err
	}
	fmt.Printf("training %s (1/%d scale) on %d workers; checkpoint every %d iterations\n",
		cfg.Name, opt.Scale, len(dicts), ckptInterval)

	// Crashes strike at these iterations (node sets chosen to exercise
	// both recovery workflows).
	failures := map[int][]int{
		10: {sys.ParityNodes()[0]},                     // replacement workflow
		22: {sys.DataNodes()[0], sys.ParityNodes()[1]}, // decode workflow
	}
	// And one preemption whose notice cannot possibly cover the transfer.
	shortNotice := map[int]int{30: sys.DataNodes()[0]}

	ctx := context.Background()
	lastCkpt := 0
	recoveries := 0
	iter := 0
	for iter < iterations {
		iter++
		trainStep(dicts, iter)

		if iter%ckptInterval == 0 {
			rep, err := sys.Save(ctx, dicts)
			if err != nil {
				return fmt.Errorf("save at iteration %d: %w", iter, err)
			}
			lastCkpt = iter
			fmt.Printf("iter %2d: checkpoint v%d (remote persisted: %v)\n",
				iter, rep.Version, rep.RemotePersisted)
		}

		// A platform preemption notice? Drain before the deadline lands.
		select {
		case n := <-notices:
			fmt.Printf("iter %2d: PREEMPTION NOTICE for node %d — %v until the kill\n",
				iter, n.node, time.Until(n.deadline).Round(time.Millisecond))
			drain, err := sys.PreemptNode(ctx, n.node, time.Until(n.deadline))
			if err != nil {
				return fmt.Errorf("preempt node %d: %w", n.node, err)
			}
			if !drain.Completed {
				return fmt.Errorf("drain with %v notice should have won: %s", 10*time.Second, drain.Reason)
			}
			fmt.Printf("iter %2d: drained %d blobs (%d KiB) to custodian node %d in %v; node %d killed\n",
				iter, drain.Blobs, drain.BytesMoved>>10, drain.Custodian, drain.Elapsed.Round(time.Millisecond), n.node)
			fmt.Printf("iter %2d: fault tolerance %d/2 with the slot empty\n", iter, sys.FaultTolerance())
			join, err := sys.AddNode(ctx, n.node)
			if err != nil {
				return fmt.Errorf("add node %d: %w", n.node, err)
			}
			fmt.Printf("iter %2d: replacement joined: restored from custody = %v, fault tolerance %d/2\n",
				iter, join.Restored, sys.FaultTolerance())
			// Recovery drill: the checkpoint must be loadable with zero
			// erasure rebuilds — the drain preserved every chunk.
			_, lrep, err := sys.Load(ctx)
			if err != nil {
				return fmt.Errorf("drill load: %w", err)
			}
			fmt.Printf("iter %2d: recovery drill: %s workflow, %d chunks rebuilt — training continues, NO rollback\n",
				iter, lrep.Workflow, len(lrep.MissingChunks))
		default:
		}

		// A preemption with a hopeless deadline?
		if victim, ok := shortNotice[iter]; ok {
			delete(shortNotice, iter)
			fmt.Printf("iter %2d: PREEMPTION NOTICE for node %d — only 3ms until the kill\n", iter, victim)
			drain, err := sys.PreemptNode(ctx, victim, 3*time.Millisecond)
			if err != nil {
				return fmt.Errorf("preempt node %d: %w", victim, err)
			}
			if drain.Completed {
				fmt.Printf("iter %2d: drain won against the odds; continuing\n", iter)
			} else {
				fmt.Printf("iter %2d: drain LOST the race (%s); postmortem:\n", iter, drain.Reason)
				printTimeline(drain.Postmortem)
			}
			join, err := sys.AddNode(ctx, victim)
			if err != nil {
				return fmt.Errorf("add node %d: %w", victim, err)
			}
			if join.Rebuilt != nil {
				fmt.Printf("iter %2d: replacement joined: chunk %d rebuilt in place from the survivors, fault tolerance %d/2\n",
					iter, join.Rebuilt.Chunk, sys.FaultTolerance())
			}
			// Fall through to the rollback below: the machine's workers lost
			// their state, exactly like a crash — but the load rebuilds nothing.
			failures[iter] = nil
		}

		victims, wasCrash := failures[iter]
		if !wasCrash {
			continue
		}
		delete(failures, iter)
		if len(victims) > 0 {
			fmt.Printf("iter %2d: machines %v fail; host memory lost\n", iter, victims)
			for _, v := range victims {
				if err := sys.FailNode(v); err != nil {
					return err
				}
				if err := sys.ReplaceNode(v); err != nil {
					return err
				}
			}
		}
		recovered, lrep, err := sys.Load(ctx)
		if err != nil {
			return fmt.Errorf("recovery at iteration %d: %w", iter, err)
		}
		recoveries++
		fmt.Printf("iter %2d: recovered v%d (%s workflow, chunks %v rebuilt) in %v\n",
			iter, lrep.Version, lrep.Workflow, lrep.MissingChunks, lrep.Elapsed)

		// Verify: replaying training from the recovered state must land
		// exactly where the pre-failure state was.
		replay := make([]*eccheck.StateDict, len(recovered))
		for rank, sd := range recovered {
			replay[rank] = sd.Clone()
		}
		for it := lastCkpt + 1; it <= iter; it++ {
			trainStep(replay, it)
		}
		for rank := range dicts {
			if !dicts[rank].Equal(replay[rank]) {
				return fmt.Errorf("rank %d: replayed state diverges after recovery", rank)
			}
		}
		fmt.Printf("iter %2d: replay from v%d matches pre-failure state ✓\n", iter, lrep.Version)
		dicts = recovered
		iter = lastCkpt
	}

	fmt.Printf("finished %d iterations with %d recoveries; final checkpoint v%d\n",
		iterations, recoveries, sys.Version())
	return nil
}
