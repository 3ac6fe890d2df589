package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/core"
	"eccheck/internal/model"
	"eccheck/internal/obs/flight"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
	"eccheck/internal/transport"
)

// ElasticPath is one membership-churn strategy measured end to end: lose
// a data node, repair the slot, recover, and take the next checkpoint.
// Bytes are real transport traffic (every Send observed by the flight
// recorder), split by step so the table shows where each strategy pays.
type ElasticPath struct {
	// Name identifies the strategy ("crash+full" or "drain+delta").
	Name string
	// LeaveBytes is the traffic of the leave itself: zero for a crash,
	// the custody transfer for a drain.
	LeaveBytes int64
	// RepairBytes is the join-side repair traffic: the in-place erasure
	// rebuild of the lost chunk, or the custody hand-back.
	RepairBytes int64
	// RecoveryBytes is the Load's traffic: pure redistribution on both
	// paths, the join having made the slot whole.
	RecoveryBytes int64
	// CheckpointBytes is the next save: a full re-encode after the crash,
	// a delta-parity update after the drain.
	CheckpointBytes int64
	// RebuiltChunks counts chunks reconstructed through the code, at the
	// join or by the Load.
	RebuiltChunks int
	// Wall is the wall time of the whole sequence.
	Wall time.Duration
}

// TotalBytes is the strategy's end-to-end traffic.
func (p ElasticPath) TotalBytes() int64 {
	return p.LeaveBytes + p.RepairBytes + p.RecoveryBytes + p.CheckpointBytes
}

// ElasticResult compares the two strategies on identical state and churn.
type ElasticResult struct {
	// Full is the crash path: no drain, erasure rebuild at the join, full
	// re-encode of the next checkpoint.
	Full ElasticPath
	// Delta is the elastic path: preemption drain to a custodian, custody
	// restore on rejoin, zero-rebuild recovery, delta-parity checkpoint.
	Delta ElasticPath
	// BytesRatio is Full.TotalBytes / Delta.TotalBytes — how much less
	// data the elastic path moves for small-delta churn.
	BytesRatio float64
}

type elasticRig struct {
	ckpt  *core.Checkpointer
	clus  *cluster.Cluster
	rec   *flight.Recorder
	close func()
}

func newElasticRig() (*elasticRig, error) {
	topo, err := parallel.NewTopology(4, 2, 2, 4)
	if err != nil {
		return nil, err
	}
	base, err := transport.NewMemory(4)
	if err != nil {
		return nil, err
	}
	rec := flight.New(1 << 16)
	net := transport.WithFlight(base, rec)
	clus, err := cluster.New(4, 2)
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	ckpt, err := core.New(core.Config{
		Topo:             topo,
		K:                2,
		M:                2,
		BufferSize:       16 << 10,
		IncrementalCache: true,
		Flight:           rec,
	}, net, clus, nil)
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	return &elasticRig{
		ckpt: ckpt,
		clus: clus,
		rec:  rec,
		close: func() {
			_ = ckpt.Close()
			_ = net.Close()
		},
	}, nil
}

// sendBytes drains the flight ring and sums the observed Send traffic,
// resetting the counter for the next step.
func (r *elasticRig) sendBytes() int64 {
	var total int64
	for _, ev := range r.rec.Drain() {
		if ev.Type == flight.EvSend {
			total += ev.Bytes
		}
	}
	return total
}

// mutateOneBuffer flips one byte in every worker's first tensor: the
// small-delta churn regime (a handful of optimizer steps between the
// leave and the next checkpoint).
func mutateOneBuffer(dicts []*statedict.StateDict) {
	for rank, sd := range dicts {
		entries := sd.TensorEntries()
		if len(entries) == 0 {
			continue
		}
		entries[0].Tensor.Data()[0] ^= byte(rank + 1)
	}
}

// ElasticStudy measures the elastic-membership claim end to end: when a
// data node leaves and rejoins between checkpoints, a drained leave plus
// delta-parity repair moves a small fraction of the bytes the crash path
// (erasure rebuild, full re-encode) moves, at matching wall-time
// savings. Both paths run on identical state, identical churn, and the
// same one-buffer-per-worker mutation.
func ElasticStudy(w io.Writer) (*ElasticResult, error) {
	ctx := context.Background()
	opt := model.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 77

	runPath := func(drained bool) (ElasticPath, error) {
		name := "crash+full"
		if drained {
			name = "drain+delta"
		}
		path := ElasticPath{Name: name}
		rig, err := newElasticRig()
		if err != nil {
			return path, err
		}
		defer rig.close()
		topo := rig.ckpt.Plan().Topo
		dicts, err := model.BuildClusterStateDicts(model.GPT2_345M(), topo, opt)
		if err != nil {
			return path, err
		}
		if _, err := rig.ckpt.Save(ctx, dicts); err != nil {
			return path, err
		}
		victim := rig.ckpt.Plan().DataNodes[0]
		rig.sendBytes() // reset: the v1 baseline save is not churn traffic

		started := time.Now()
		if drained {
			if err := rig.clus.BeginDrain(victim); err != nil {
				return path, err
			}
			if _, err := rig.ckpt.DrainNode(ctx, victim); err != nil {
				return path, err
			}
		}
		if err := rig.clus.Fail(victim); err != nil {
			return path, err
		}
		path.LeaveBytes = rig.sendBytes()

		if err := rig.clus.Replace(victim); err != nil {
			return path, err
		}
		join, err := rig.ckpt.RepairNode(ctx, victim)
		if err != nil {
			return path, err
		}
		path.RepairBytes = rig.sendBytes()
		if join.Rebuilt != nil && !join.Rebuilt.AlreadyIntact {
			path.RebuiltChunks++
		}

		loaded, lrep, err := rig.ckpt.Load(ctx)
		if err != nil {
			return path, err
		}
		path.RecoveryBytes = rig.sendBytes()
		path.RebuiltChunks += len(lrep.MissingChunks)

		mutateOneBuffer(loaded)
		if drained {
			if _, err := rig.ckpt.SaveIncremental(ctx, loaded); err != nil {
				return path, err
			}
		} else {
			if _, err := rig.ckpt.Save(ctx, loaded); err != nil {
				return path, err
			}
		}
		path.CheckpointBytes = rig.sendBytes()
		path.Wall = time.Since(started)
		return path, nil
	}

	full, err := runPath(false)
	if err != nil {
		return nil, fmt.Errorf("crash path: %w", err)
	}
	delta, err := runPath(true)
	if err != nil {
		return nil, fmt.Errorf("drain path: %w", err)
	}
	res := &ElasticResult{Full: full, Delta: delta}
	if delta.TotalBytes() > 0 {
		res.BytesRatio = float64(full.TotalBytes()) / float64(delta.TotalBytes())
	}

	fmt.Fprintln(w, "Elastic membership: crash recovery vs preemption drain + delta parity")
	fmt.Fprintln(w, "(lose one data node between checkpoints, small-delta churn; bytes = transport sends)")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %8s %10s\n",
		"path", "leave", "repair", "recovery", "ckpt", "total", "rebuilt", "wall")
	for _, p := range []ElasticPath{full, delta} {
		fmt.Fprintf(w, "%-12s %9dK %9dK %9dK %9dK %9dK %8d %10s\n",
			p.Name, p.LeaveBytes>>10, p.RepairBytes>>10, p.RecoveryBytes>>10,
			p.CheckpointBytes>>10, p.TotalBytes()>>10, p.RebuiltChunks,
			p.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "bytes moved: %.1fx less on the elastic path\n", res.BytesRatio)
	return res, nil
}
