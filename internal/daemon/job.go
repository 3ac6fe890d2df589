package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"eccheck"
)

// metaStepKey is the state-dict metadata key carrying the simulated
// training iteration; load verifies it round-trips byte-exactly.
const metaStepKey = "daemon_step"

// job is one registered training job: the spec it was registered with,
// the System owning its simulated fleet, and the job's training state.
//
// Two locks with a strict order (opMu before mu): opMu serializes the
// checkpoint-affecting operations (save, load, fail, close) — the
// daemon's cross-job concurrency happens in the slot scheduler, not here
// — while mu guards only the small status fields, so GET /v1/jobs/{id}
// answers instantly even while a round is in flight.
type job struct {
	spec JobSpec
	sys  *eccheck.System
	// memReserved and bwReserved are the tenant-quota charges released at
	// deletion.
	memReserved int64
	bwReserved  float64

	// opMu serializes rounds and guards dicts (only round code touches
	// the tensor payloads).
	opMu  sync.Mutex
	dicts []*eccheck.StateDict

	mu sync.Mutex
	// step is the simulated training iteration; ckptStep the iteration
	// the last committed checkpoint captured.
	step     int
	ckptStep int
	saves    int64
	loads    int64
	failures int64
	inFlight string
	lastSave *eccheck.SaveReport
	lastLoad *eccheck.LoadReport
	lastErr  string
}

// newJob builds the job's fleet and its simulated model state. spec must
// already carry defaults and have passed validation; logger (nil-able)
// is the daemon's logger scoped to this job.
func newJob(spec JobSpec, logger *slog.Logger) (*job, error) {
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes:           spec.Nodes,
		GPUsPerNode:     spec.GPUsPerNode,
		TPDegree:        spec.GPUsPerNode,
		PPStages:        spec.Nodes,
		K:               spec.K,
		M:               spec.M,
		BufferSize:      spec.BufferBytes,
		FlightEvents:    spec.FlightEvents,
		RemoteBandwidth: spec.RemoteBandwidth,
		DisableRemote:   spec.DisableRemote,
		WatchdogFactor:  spec.WatchdogFactor,
		Logger:          logger,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	opt := eccheck.NewBuildOptions()
	opt.Scale = spec.Scale
	opt.Seed = 1000
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	j := &job{spec: spec, sys: sys, dicts: dicts}
	j.memReserved = estimateMemoryBytes(dicts, spec.K, spec.M)
	j.bwReserved = spec.RemoteBandwidth
	return j, nil
}

// estimateMemoryBytes is the host-memory reservation charged against the
// tenant quota: the summed tensor payload expanded by the code's (k+m)/k
// redundancy — the coded checkpoint footprint across the fleet.
func estimateMemoryBytes(dicts []*eccheck.StateDict, k, m int) int64 {
	var total int64
	for _, sd := range dicts {
		total += int64(sd.TensorBytes())
	}
	return total * int64(k+m) / int64(k)
}

// begin marks the job busy with op (surfaced in JobStatus.InFlight);
// end clears it. Mutual exclusion is opMu, not this marker.
func (j *job) begin(op string) {
	j.mu.Lock()
	j.inFlight = op
	j.mu.Unlock()
}

func (j *job) end() {
	j.mu.Lock()
	j.inFlight = ""
	j.mu.Unlock()
}

// advance simulates `steps` training iterations: every shard is mutated
// deterministically and stamped with the new iteration, so a later load
// can verify recovery byte-exactly. Caller holds opMu.
func (j *job) advance(steps int) int {
	j.mu.Lock()
	start := j.step
	j.step += steps
	stop := j.step
	j.mu.Unlock()
	for s := start + 1; s <= stop; s++ {
		for rank, sd := range j.dicts {
			entries := sd.TensorEntries()
			ts := entries[s%len(entries)].Tensor
			ts.Data()[(s*31+rank)%ts.NumBytes()] ^= byte(s)
			sd.SetMeta(metaStepKey, eccheck.IntValue(int64(s)))
		}
	}
	// Each advanced step widens the gap between live training state and
	// the last committed checkpoint; the health tracker folds it into the
	// job's staleness score.
	j.sys.HealthTracker().NoteMutation(steps)
	return stop
}

// save advances the simulated training and checkpoints the job. The
// caller has already acquired the fleet-wide save slot.
func (j *job) save(ctx context.Context, steps int) (*eccheck.SaveReport, error) {
	if steps <= 0 {
		steps = 1
	}
	j.opMu.Lock()
	defer j.opMu.Unlock()
	j.begin("save")
	defer j.end()
	stop := j.advance(steps)
	rep, err := j.sys.Save(ctx, j.dicts)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.failures++
		j.lastErr = err.Error()
		if rep != nil {
			j.lastSave = rep
		}
		return rep, err
	}
	j.saves++
	j.lastSave = rep
	j.lastErr = ""
	j.ckptStep = stop
	return rep, nil
}

// load recovers the job's latest checkpoint, verifies the recovered
// iteration metadata against the job's checkpoint position, and rolls the
// simulated training back to it.
func (j *job) load(ctx context.Context) (*eccheck.LoadReport, int, error) {
	j.opMu.Lock()
	defer j.opMu.Unlock()
	j.begin("load")
	defer j.end()
	dicts, rep, err := j.sys.Load(ctx)
	j.mu.Lock()
	defer j.mu.Unlock()
	verified, err := j.restored(dicts, rep, err)
	if err == nil {
		j.dicts = dicts
		j.step = j.ckptStep
	}
	return rep, verified, err
}

// restored books a load round under j.mu: the round's error, or a recovered
// rank whose step metadata is missing or is not the checkpoint's step, is a
// job failure. dicts is indexed by rank, nil for a rank the round did not
// restore. It returns the step the round verified: on a mismatch, the step
// the offending rank recovered.
func (j *job) restored(dicts []*eccheck.StateDict, rep *eccheck.LoadReport, err error) (step int, failed error) {
	defer func() {
		if failed != nil {
			j.failures++
			j.lastErr = failed.Error()
		}
	}()
	if err != nil {
		if rep != nil {
			j.lastLoad = rep
		}
		return 0, err
	}
	for rank, sd := range dicts {
		if sd == nil {
			continue
		}
		v, ok := sd.Meta(metaStepKey)
		if !ok {
			return 0, fmt.Errorf("daemon: rank %d recovered without %s metadata", rank, metaStepKey)
		}
		if it, _ := v.AsInt(); int(it) != j.ckptStep {
			return int(it), fmt.Errorf("daemon: rank %d recovered step %d, checkpoint was %d", rank, it, j.ckptStep)
		}
	}
	j.loads++
	j.lastLoad = rep
	j.lastErr = ""
	return j.ckptStep, nil
}

// loadPartial lazily restores only the requested ranks, verifies their
// recovered iteration metadata, and swaps the restored shards into the
// job's state. Unlike load it does not roll the whole job back: the
// unrequested ranks keep their live (possibly post-checkpoint) state,
// exactly the mixed state a serving failover accepts until the rest of
// the fleet restores.
func (j *job) loadPartial(ctx context.Context, ranks []int) (*eccheck.LoadReport, int, error) {
	// Rank validation is a client error (400), not a job failure: check
	// before the op begins so a typo never pollutes the failure counter.
	world := j.spec.Nodes * j.spec.GPUsPerNode
	if len(ranks) == 0 {
		return nil, 0, fmt.Errorf("%w: partial load needs at least one rank", ErrBadRequest)
	}
	for _, r := range ranks {
		if r < 0 || r >= world {
			return nil, 0, fmt.Errorf("%w: rank %d out of range [0,%d)", ErrBadRequest, r, world)
		}
	}
	j.opMu.Lock()
	defer j.opMu.Unlock()
	j.begin("load")
	defer j.end()
	restored, rep, err := j.sys.LoadPartial(ctx, ranks)
	j.mu.Lock()
	defer j.mu.Unlock()
	dicts := make([]*eccheck.StateDict, world)
	for rank, sd := range restored {
		dicts[rank] = sd
	}
	verified, err := j.restored(dicts, rep, err)
	if err == nil {
		for rank, sd := range restored {
			j.dicts[rank] = sd
		}
	}
	return rep, verified, err
}

// fail injects a machine failure (and by default an immediate empty
// replacement, so the next load rebuilds the lost chunk through the
// code).
func (j *job) fail(node int, replace bool) error {
	j.opMu.Lock()
	defer j.opMu.Unlock()
	j.begin("fail")
	defer j.end()
	if node < 0 || node >= j.spec.Nodes {
		return fmt.Errorf("%w: node %d out of range [0,%d)", ErrBadRequest, node, j.spec.Nodes)
	}
	if err := j.sys.FailNode(node); err != nil {
		return err
	}
	if replace {
		return j.sys.ReplaceNode(node)
	}
	return nil
}

// close tears the job's fleet down, cancelling and waiting for any
// in-flight round.
func (j *job) close() error {
	j.opMu.Lock()
	defer j.opMu.Unlock()
	j.begin("delete")
	defer j.end()
	return j.sys.Close()
}

// status snapshots the job without waiting for in-flight rounds.
func (j *job) status() JobStatus {
	health := j.sys.Health()
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:                  j.spec.ID,
		Tenant:              j.spec.Tenant,
		Nodes:               j.spec.Nodes,
		K:                   j.spec.K,
		M:                   j.spec.M,
		Step:                j.step,
		CheckpointStep:      j.ckptStep,
		Version:             j.sys.Version(),
		FaultTolerance:      j.sys.FaultTolerance(),
		MemoryReservedBytes: j.memReserved,
		RemoteBandwidth:     j.bwReserved,
		Saves:               j.saves,
		Loads:               j.loads,
		Failures:            j.failures,
		InFlight:            j.inFlight,
		LastError:           j.lastErr,
		LastSave:            j.lastSave,
		LastLoad:            j.lastLoad,
		Health:              &health,
	}
}
