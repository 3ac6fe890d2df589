// Package baseline implements the three checkpointing baselines the paper
// evaluates ECCheck against:
//
//   - Base1: conventional synchronous checkpointing (torch.save style) —
//     serialize every worker's state dict and write it to remote
//     persistent storage, blocking training for the whole round.
//   - Base2: a CheckFreq-inspired two-phase scheme — snapshot the state to
//     host memory (blocking), then serialize and persist to remote storage
//     asynchronously.
//   - Base3: GEMINI-style replication-based in-memory checkpointing —
//     nodes form fixed groups and every node stores replicas of its group
//     peers' checkpoints in host memory; recovery fetches the replica, and
//     is impossible when a whole group fails.
//
// Each baseline has a timing model (used by the figure harness). Base3 also
// has a functional implementation (real bytes, used by the fault-tolerance
// comparisons and examples).
package baseline

import (
	"context"
	"fmt"

	"eccheck/internal/cluster"
	"eccheck/internal/parallel"
	"eccheck/internal/serialize"
	"eccheck/internal/statedict"
)

// Base3 stores each worker's checkpoint on its own node and replicates it
// to every other node of its fixed group.
type Base3 struct {
	topo      *parallel.Topology
	clus      *cluster.Cluster
	groupSize int
	version   int
}

// NewBase3 constructs the replication baseline with the given group size
// (2 in the paper's testbed: nodes {0,1} and {2,3}).
func NewBase3(topo *parallel.Topology, clus *cluster.Cluster, groupSize int) (*Base3, error) {
	if topo == nil || clus == nil {
		return nil, fmt.Errorf("baseline: base3 needs a topology and a cluster")
	}
	if groupSize < 2 {
		return nil, fmt.Errorf("baseline: group size must be >= 2, got %d", groupSize)
	}
	if topo.Nodes()%groupSize != 0 {
		return nil, fmt.Errorf("baseline: group size %d does not divide %d nodes",
			groupSize, topo.Nodes())
	}
	return &Base3{topo: topo, clus: clus, groupSize: groupSize}, nil
}

// GroupOf returns the replication group members of a node.
func (b *Base3) GroupOf(node int) []int {
	first := (node / b.groupSize) * b.groupSize
	out := make([]int, b.groupSize)
	for i := range out {
		out[i] = first + i
	}
	return out
}

func base3Key(version, rank int) string { return fmt.Sprintf("base3/v%d/rank%d", version, rank) }

// Save checkpoints all workers' state dicts (indexed by world rank): every
// node stores its workers' serialized shards and replicates them to all
// group peers.
func (b *Base3) Save(_ context.Context, dicts []*statedict.StateDict) error {
	if len(dicts) != b.topo.World() {
		return fmt.Errorf("baseline: base3 got %d dicts, want %d", len(dicts), b.topo.World())
	}
	version := b.version + 1
	for rank, sd := range dicts {
		node, err := b.topo.NodeOf(rank)
		if err != nil {
			return err
		}
		blob, err := serialize.Marshal(sd)
		if err != nil {
			return fmt.Errorf("baseline: base3 rank %d: %w", rank, err)
		}
		for _, member := range b.GroupOf(node) {
			if err := b.clus.Store(member, base3Key(version, rank), blob); err != nil {
				return fmt.Errorf("baseline: base3 replicate rank %d to node %d: %w", rank, member, err)
			}
		}
	}
	b.version = version
	return nil
}

// Load recovers all workers' state dicts: each worker's shard is fetched
// from any live group member. When an entire group has failed, recovery is
// impossible — the weakness erasure coding removes.
func (b *Base3) Load(_ context.Context) ([]*statedict.StateDict, error) {
	if b.version == 0 {
		return nil, fmt.Errorf("baseline: base3 has no checkpoint")
	}
	out := make([]*statedict.StateDict, b.topo.World())
	for rank := range out {
		node, err := b.topo.NodeOf(rank)
		if err != nil {
			return nil, err
		}
		var blob []byte
		for _, member := range b.GroupOf(node) {
			if b.clus.Has(member, base3Key(b.version, rank)) {
				blob, err = b.clus.Load(member, base3Key(b.version, rank))
				if err == nil {
					break
				}
			}
		}
		if blob == nil {
			return nil, fmt.Errorf("baseline: base3 cannot recover rank %d: its whole group lost the replica", rank)
		}
		sd, err := serialize.Unmarshal(blob)
		if err != nil {
			return nil, fmt.Errorf("baseline: base3 rank %d: %w", rank, err)
		}
		out[rank] = sd
	}
	return out, nil
}
