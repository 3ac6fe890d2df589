package harness

import (
	"io"
	"time"

	"eccheck/internal/baseline"
	"eccheck/internal/core"
	"eccheck/internal/freq"
	"eccheck/internal/model"
)

// FrequencyRow is one method's optimal checkpointing economics under the
// paper's failure regime (a failure every ≈3 hours, as in Llama 3.1
// training): the Young–Daly optimal interval and the machine-time fraction
// lost to checkpoint overhead, re-computation and recovery.
type FrequencyRow struct {
	Method string
	// Stall is the per-checkpoint training interruption.
	Stall time.Duration
	// Recovery is the failure-to-resumption time.
	Recovery time.Duration
	// OptimalInterval is the Young–Daly optimum.
	OptimalInterval time.Duration
	// Waste is the expected lost-time fraction at the optimum.
	Waste float64
}

// FrequencyStudy quantifies the paper's economic argument for GPT-2 5.3B
// on the paper testbed: cheaper checkpoints and faster recovery permit
// much higher frequency and much less wasted machine time.
func FrequencyStudy(w io.Writer) ([]FrequencyRow, error) {
	const mtbf = 3 * time.Hour

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
	res := Resources()
	in, err := timingInput(cfg, topo, res)
	if err != nil {
		return nil, err
	}
	stall, _, err := saveTimes(ckpt, in)
	if err != nil {
		return nil, err
	}
	remoteRec, err := baseline.Base1RecoverTime(in)
	if err != nil {
		return nil, err
	}
	b3Rec, err := baseline.Base3RecoverTime(in)
	if err != nil {
		return nil, err
	}
	// ECCheck recovery: the decode workflow (worst recoverable case).
	plan := ckpt.Plan()
	ecRec, err := ckpt.TimedRecover(core.TimedOptions{Resources: res, PacketBytes: in.ShardBytes},
		[]int{plan.DataNodes[0]})
	if err != nil {
		return nil, err
	}

	cases := []struct {
		method   string
		stall    time.Duration
		recovery time.Duration
	}{
		{"base1", stall["base1"], remoteRec.Resume},
		{"base2", stall["base2"], remoteRec.Resume},
		{"base3", stall["base3"], b3Rec.Resume},
		{"eccheck", stall["eccheck"], ecRec.Resume},
	}
	var rows []FrequencyRow
	for _, tc := range cases {
		p := freq.Params{CheckpointCost: tc.stall, RecoveryCost: tc.recovery, MTBF: mtbf}
		opt, waste, err := freq.OptimalWaste(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FrequencyRow{
			Method:          tc.method,
			Stall:           tc.stall,
			Recovery:        tc.recovery,
			OptimalInterval: opt,
			Waste:           waste,
		})
	}
	if w != nil {
		if err := fprintf(w, "Checkpoint-frequency economics (GPT-2 5.3B, MTBF %v)\n%-8s %10s %10s %12s %8s\n",
			mtbf, "method", "stall", "recovery", "optimal-int", "waste"); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := fprintf(w, "%-8s %s %s %11.0fs %7.2f%%\n",
				r.Method, seconds(r.Stall), seconds(r.Recovery),
				r.OptimalInterval.Seconds(), 100*r.Waste); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
