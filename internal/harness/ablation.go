package harness

import (
	"io"
	"time"

	"eccheck/internal/core"
	"eccheck/internal/erasure"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/placement"
	"eccheck/internal/training"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// each isolates one optimization of the system and quantifies its effect.
type AblationResult struct {
	// Scheduling: step-3 latency and training interference with and
	// without idle-slot scheduling (GPT-2 5.3B).
	ScheduledStep3  time.Duration
	ScheduledInterf time.Duration
	ContendedStep3  time.Duration
	ContendedInterf time.Duration

	// Pipelining: step-3 latency with and without the pipelined executor.
	PipelinedStep3  time.Duration
	SequentialStep3 time.Duration

	// Node selection: total communication volume (packets) under the
	// sweep-line selection vs the naive first-k assignment, on a topology
	// where the choice matters (Fig. 9's shape scaled up).
	SweepLineVolume int
	NaiveVolume     int

	// Coding: XOR count of the compiled encode schedule with and without
	// the matrix improvement and smart scheduling.
	PlainXORs    int
	ImprovedXORs int
	SmartXORs    int
}

// Ablations runs all design-choice ablations.
func Ablations(w io.Writer) (*AblationResult, error) {
	out := &AblationResult{}
	topo, err := paperTopology()
	if err != nil {
		return nil, err
	}
	ckpt, cleanup, err := newPaperCheckpointer(topo)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	cfg, err := model.GPT2Size("5.3B")
	if err != nil {
		return nil, err
	}
	shard, err := model.MaxShardBytes(cfg, topo)
	if err != nil {
		return nil, err
	}
	res := Resources()

	// --- Communication scheduling. ---
	workload, err := training.NewWorkload(cfg, topo, res.NICBandwidth)
	if err != nil {
		return nil, err
	}
	tl, period, err := workload.BuildTimeline(training.ProfileIterations)
	if err != nil {
		return nil, err
	}
	prof, err := training.ProfileIdleSlots(tl, period)
	if err != nil {
		return nil, err
	}
	ext, err := prof.ExtendTimeline(1000 * period)
	if err != nil {
		return nil, err
	}
	sched, err := ckpt.TimedSave(core.TimedOptions{
		Resources: res, PacketBytes: shard, Pipeline: true,
		Timeline: ext, ScheduleIdle: true,
	})
	if err != nil {
		return nil, err
	}
	cont, err := ckpt.TimedSave(core.TimedOptions{
		Resources: res, PacketBytes: shard, Pipeline: true,
		Timeline: ext, ScheduleIdle: false,
	})
	if err != nil {
		return nil, err
	}
	out.ScheduledStep3 = sched.Step3
	out.ScheduledInterf = sched.Interference
	out.ContendedStep3 = cont.Step3
	out.ContendedInterf = cont.Interference

	// --- Pipelining. ---
	piped, err := ckpt.TimedSave(core.TimedOptions{Resources: res, PacketBytes: shard, Pipeline: true})
	if err != nil {
		return nil, err
	}
	seq, err := ckpt.TimedSave(core.TimedOptions{Resources: res, PacketBytes: shard, Pipeline: false})
	if err != nil {
		return nil, err
	}
	out.PipelinedStep3 = piped.Step3
	out.SequentialStep3 = seq.Step3

	// --- Node selection: Fig. 9 topology shape (3h nodes of 2 GPUs, k=2)
	// where the naive first-k choice is suboptimal. ---
	selTopo, err := newSelectionTopology()
	if err != nil {
		return nil, err
	}
	sweep, err := placement.New(selTopo, 2, 1)
	if err != nil {
		return nil, err
	}
	naive, err := placement.NewWithDataNodes(selTopo, 2, 1, []int{0, 1})
	if err != nil {
		return nil, err
	}
	out.SweepLineVolume = sweep.CommVolume().Total()
	out.NaiveVolume = naive.CommVolume().Total()

	// --- Coding schedule quality. ---
	plain, err := erasure.New(4, 2, erasure.WithImprovedMatrix(false), erasure.WithSmartSchedule(false))
	if err != nil {
		return nil, err
	}
	improved, err := erasure.New(4, 2, erasure.WithImprovedMatrix(true), erasure.WithSmartSchedule(false))
	if err != nil {
		return nil, err
	}
	smart, err := erasure.New(4, 2, erasure.WithImprovedMatrix(true), erasure.WithSmartSchedule(true))
	if err != nil {
		return nil, err
	}
	out.PlainXORs = plain.EncodeXORCount()
	out.ImprovedXORs = improved.EncodeXORCount()
	out.SmartXORs = smart.EncodeXORCount()

	if w != nil {
		if err := fprintf(w, "Ablations (GPT-2 5.3B unless stated)\n"); err != nil {
			return nil, err
		}
		if err := fprintf(w, "communication scheduling: step3 %s vs %s contended; interference %s vs %s\n",
			seconds(out.ScheduledStep3), seconds(out.ContendedStep3),
			seconds(out.ScheduledInterf), seconds(out.ContendedInterf)); err != nil {
			return nil, err
		}
		if err := fprintf(w, "pipelined execution:      step3 %s vs %s sequential\n",
			seconds(out.PipelinedStep3), seconds(out.SequentialStep3)); err != nil {
			return nil, err
		}
		if err := fprintf(w, "node selection (Fig. 9):  %d packets sweep-line vs %d naive\n",
			out.SweepLineVolume, out.NaiveVolume); err != nil {
			return nil, err
		}
		if err := fprintf(w, "encode schedule XORs:     plain %d, improved matrix %d, +smart schedule %d\n",
			out.PlainXORs, out.ImprovedXORs, out.SmartXORs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newSelectionTopology returns the Fig. 9 topology: 3 machines with two
// workers each.
func newSelectionTopology() (*parallel.Topology, error) {
	return parallel.NewTopology(3, 2, 2, 3)
}
