package harness

import (
	"io"
	"time"

	"eccheck/internal/baseline"
	"eccheck/internal/core"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/testbed"
	"eccheck/internal/training"
)

// --- Fig. 10: checkpointing time across models and methods. ---

// Fig10Row is one model's checkpoint latencies per method.
type Fig10Row struct {
	Model string
	// Total checkpoint latency per method name.
	Total map[string]time.Duration
}

// Fig10 compares the checkpoint time of all four methods for the nine
// Table I models on the paper testbed.
func Fig10(w io.Writer) ([]Fig10Row, error) {
	topo, err := paperTopology()
	if err != nil {
		return nil, err
	}
	ckpt, cleanup, err := newPaperCheckpointer(topo)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	res := Resources()
	var rows []Fig10Row
	for _, cfg := range model.TableI() {
		in, err := timingInput(cfg, topo, res)
		if err != nil {
			return nil, err
		}
		_, total, err := saveTimes(ckpt, in)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{Model: cfg.Name, Total: total})
	}
	if w != nil {
		if err := fprintf(w, "Fig. 10: checkpointing time (4 nodes x 4 GPUs, k=m=2)\n%-12s %10s %10s %10s %10s\n",
			"Model", "base1", "base2", "base3", "eccheck"); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := fprintf(w, "%-12s %s %s %s %s\n", r.Model,
				seconds(r.Total["base1"]), seconds(r.Total["base2"]),
				seconds(r.Total["base3"]), seconds(r.Total["eccheck"])); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// --- Fig. 11: ECCheck time breakdown. ---

// Fig11Row is one model's step breakdown.
type Fig11Row struct {
	Model string
	Step1 time.Duration
	Step2 time.Duration
	Step3 time.Duration
}

// Fig11 breaks ECCheck checkpointing into its three steps for the GPT-2
// sizes.
func Fig11(w io.Writer) ([]Fig11Row, error) {
	topo, err := paperTopology()
	if err != nil {
		return nil, err
	}
	ckpt, cleanup, err := newPaperCheckpointer(topo)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	var rows []Fig11Row
	for _, label := range []string{"1.6B", "5.3B", "20B"} {
		cfg, err := model.GPT2Size(label)
		if err != nil {
			return nil, err
		}
		shard, err := model.MaxShardBytes(cfg, topo)
		if err != nil {
			return nil, err
		}
		rep, err := ckpt.TimedSave(core.TimedOptions{
			Resources:   Resources(),
			PacketBytes: shard,
			Pipeline:    true,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{Model: cfg.Name, Step1: rep.Step1, Step2: rep.Step2, Step3: rep.Step3})
	}
	if w != nil {
		if err := fprintf(w, "Fig. 11: ECCheck time breakdown\n%-12s %10s %10s %10s\n",
			"Model", "step1", "step2", "step3"); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := fprintf(w, "%-12s %s %s %s\n", r.Model,
				seconds(r.Step1), seconds(r.Step2), seconds(r.Step3)); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// --- Fig. 12: iteration time vs checkpoint frequency. ---

// Fig12Point is one (interval, method) average iteration time.
type Fig12Point struct {
	// IntervalIters is the checkpoint interval in iterations.
	IntervalIters int
	// AvgIteration per method.
	AvgIteration map[string]time.Duration
}

// Fig12 computes the average training iteration time of GPT-2 5.3B at
// several checkpoint frequencies. Synchronous schemes add their full
// latency to one iteration per interval; two-phase schemes add their stall
// and queue when the async phase exceeds the interval; in-memory schemes
// add only their stall (their communication hides in idle slots).
func Fig12(w io.Writer) ([]Fig12Point, error) {
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
	workload, err := training.NewWorkload(cfg, topo, res.NICBandwidth)
	if err != nil {
		return nil, err
	}
	iter, err := workload.IterationTime()
	if err != nil {
		return nil, err
	}
	in, err := timingInput(cfg, topo, res)
	if err != nil {
		return nil, err
	}
	stall, total, err := saveTimes(ckpt, in)
	if err != nil {
		return nil, err
	}

	avg := func(stall, total time.Duration, interval int) time.Duration {
		per := stall / time.Duration(interval)
		// If the asynchronous tail exceeds the interval, the next save
		// must wait: the surplus becomes stall too.
		window := time.Duration(interval) * iter
		if total > window+stall {
			per += (total - window - stall) / time.Duration(interval)
		}
		return iter + per
	}

	var out []Fig12Point
	for _, interval := range []int{100, 50, 20, 10, 5} {
		pt := Fig12Point{IntervalIters: interval, AvgIteration: map[string]time.Duration{}}
		for method := range total {
			pt.AvgIteration[method] = avg(stall[method], total[method], interval)
		}
		out = append(out, pt)
	}
	if w != nil {
		if err := fprintf(w, "Fig. 12: avg iteration time vs checkpoint interval (GPT-2 5.3B, baseline iter %s)\n%-9s %10s %10s %10s %10s\n",
			seconds(iter), "interval", "base1", "base2", "base3", "eccheck"); err != nil {
			return nil, err
		}
		for _, pt := range out {
			if err := fprintf(w, "%-9d %s %s %s %s\n", pt.IntervalIters,
				seconds(pt.AvgIteration["base1"]), seconds(pt.AvgIteration["base2"]),
				seconds(pt.AvgIteration["base3"]), seconds(pt.AvgIteration["eccheck"])); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// --- Fig. 13: recovery time in the two failure scenarios. ---

// Fig13Row is one model's recovery times per method in one scenario.
type Fig13Row struct {
	Model string
	// Resume per method; a nil entry means the method cannot recover.
	Resume map[string]time.Duration
	// Recoverable marks methods that can recover in this scenario.
	Recoverable map[string]bool
}

// Fig13Result groups both scenarios.
type Fig13Result struct {
	// ScenarioA: parity-node failures only (all data nodes survive).
	ScenarioA []Fig13Row
	// ScenarioB: a data node fails; base3's whole group is lost.
	ScenarioB []Fig13Row
}

// Fig13 models the two recovery scenarios of the paper for the GPT-2
// models.
func Fig13(w io.Writer) (*Fig13Result, error) {
	topo, err := paperTopology()
	if err != nil {
		return nil, err
	}
	ckpt, cleanup, err := newPaperCheckpointer(topo)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	res := Resources()
	plan := ckpt.Plan()
	result := &Fig13Result{}
	for _, label := range []string{"1.6B", "5.3B", "20B"} {
		cfg, err := model.GPT2Size(label)
		if err != nil {
			return nil, err
		}
		in, err := timingInput(cfg, topo, res)
		if err != nil {
			return nil, err
		}
		remote, err := baseline.Base1RecoverTime(in)
		if err != nil {
			return nil, err
		}
		b3, err := baseline.Base3RecoverTime(in)
		if err != nil {
			return nil, err
		}
		opt := core.TimedOptions{Resources: res, PacketBytes: in.ShardBytes}

		// Scenario A: one parity node fails (all data nodes survive; for
		// base3 the failure is one node per group, recoverable).
		ecA, err := ckpt.TimedRecover(opt, []int{plan.ParityNodes[0]})
		if err != nil {
			return nil, err
		}
		result.ScenarioA = append(result.ScenarioA, Fig13Row{
			Model: cfg.Name,
			Resume: map[string]time.Duration{
				"base1": remote.Resume, "base2": remote.Resume,
				"base3": b3.Resume, "eccheck": ecA.Resume,
			},
			Recoverable: map[string]bool{"base1": true, "base2": true, "base3": true, "eccheck": true},
		})

		// Scenario B: two failures including a data node; base3 loses a
		// whole replication group and cannot recover in memory.
		ecB, err := ckpt.TimedRecover(opt, []int{plan.DataNodes[1], plan.ParityNodes[1]})
		if err != nil {
			return nil, err
		}
		result.ScenarioB = append(result.ScenarioB, Fig13Row{
			Model: cfg.Name,
			Resume: map[string]time.Duration{
				"base1": remote.Resume, "base2": remote.Resume, "eccheck": ecB.Resume,
			},
			Recoverable: map[string]bool{"base1": true, "base2": true, "base3": false, "eccheck": true},
		})
	}
	if w != nil {
		for name, rows := range map[string][]Fig13Row{
			"13a (all data nodes survive)": result.ScenarioA,
			"13b (a data node failed)":     result.ScenarioB,
		} {
			if err := fprintf(w, "Fig. %s\n%-12s %10s %10s %10s %10s\n",
				name, "Model", "base1", "base2", "base3", "eccheck"); err != nil {
				return nil, err
			}
			for _, r := range rows {
				b3cell := "     fail "
				if r.Recoverable["base3"] {
					b3cell = seconds(r.Resume["base3"])
				}
				if err := fprintf(w, "%-12s %s %s %s %s\n", r.Model,
					seconds(r.Resume["base1"]), seconds(r.Resume["base2"]),
					b3cell, seconds(r.Resume["eccheck"])); err != nil {
					return nil, err
				}
			}
		}
	}
	return result, nil
}

// --- Fig. 14: scalability with GPU count. ---

// Fig14Row is one cluster size.
type Fig14Row struct {
	GPUs  int
	Total map[string]time.Duration
}

// Fig14 scales the worker count from 4 to 32 with per-GPU state held
// constant (layers grow with GPUs), n = 4 nodes, k = m = 2, on the V100
// platform.
func Fig14(w io.Writer) ([]Fig14Row, error) {
	res := testbed.V100()
	var rows []Fig14Row
	for _, gpus := range []int{4, 8, 16, 32} {
		perNode := gpus / 4
		topo, err := parallel.NewTopology(4, perNode, perNode, 4)
		if err != nil {
			return nil, err
		}
		in, err := timingInput(model.ScalabilityConfig(4*gpus), topo, res) // layers scale with GPUs
		if err != nil {
			return nil, err
		}
		ckpt, cleanup, err := newPaperCheckpointer(topo)
		if err != nil {
			return nil, err
		}
		_, total, err := saveTimes(ckpt, in)
		cleanup()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig14Row{GPUs: gpus, Total: total})
	}
	if w != nil {
		if err := fprintf(w, "Fig. 14: scalability of checkpointing time\n%-6s %10s %10s %10s %10s\n",
			"GPUs", "base1", "base2", "base3", "eccheck"); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := fprintf(w, "%-6d %s %s %s %s\n", r.GPUs,
				seconds(r.Total["base1"]), seconds(r.Total["base2"]),
				seconds(r.Total["base3"]), seconds(r.Total["eccheck"])); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
