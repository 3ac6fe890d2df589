package harness

import (
	"io"
	"time"

	"eccheck/internal/cluster"
	"eccheck/internal/core"
	"eccheck/internal/model"
	"eccheck/internal/parallel"
	"eccheck/internal/reliability"
	"eccheck/internal/transport"
)

// GroupSizeRow is one row of the group-size trade-off study: the paper's
// concluding discussion ("computing the optimal group size is future
// work") made concrete. Larger groups tolerate more failure patterns but
// move more bytes per node; smaller groups are cheaper but partition the
// failure budget.
type GroupSizeRow struct {
	// GroupSize is the nodes per group (k = m = GroupSize/2).
	GroupSize int
	// Groups is the group count in the 16-node cluster.
	Groups int
	// PerNodePackets is the checkpoint communication per node, in packets
	// (equals m for aligned configurations).
	PerNodePackets float64
	// ClusterRecoveryRate at a 5% per-node failure probability.
	ClusterRecoveryRate float64
	// CheckpointTime is the timed save latency (GPT-2 1.6B shards).
	CheckpointTime time.Duration
}

// GroupSizeStudy sweeps the group size over a 16-node cluster (2 GPUs per
// node), with ECCheck applied independently within each group.
func GroupSizeStudy(w io.Writer) ([]GroupSizeRow, error) {
	const (
		nodes = 16
		gpus  = 2
		p     = 0.05
	)
	cfg, err := model.GPT2Size("1.6B")
	if err != nil {
		return nil, err
	}
	res := Resources()

	// The model is sharded over the full cluster regardless of how nodes
	// are grouped for checkpointing: the per-worker shard is fixed.
	fullTopo, err := parallel.NewTopology(nodes, gpus, gpus, nodes)
	if err != nil {
		return nil, err
	}
	shard, err := model.MaxShardBytes(cfg, fullTopo)
	if err != nil {
		return nil, err
	}

	var rows []GroupSizeRow
	for _, gs := range []int{2, 4, 8, 16} {
		k, m := gs/2, gs/2
		groups := nodes / gs

		// Reliability: every group must survive independently.
		groupRate, err := reliability.ErasureRateN(gs, p)
		if err != nil {
			return nil, err
		}
		clusterRate, err := reliability.ClusterRate(groupRate, groups)
		if err != nil {
			return nil, err
		}

		// Communication and timing: the one engine over the full cluster,
		// laid out as `groups` code groups. Groups run concurrently on
		// disjoint machines, so the cluster checkpoint time is the slowest
		// group's and per-node packets are the same in every group.
		net, err := transport.NewMemory(nodes)
		if err != nil {
			return nil, err
		}
		clus, err := cluster.New(nodes, gpus)
		if err != nil {
			_ = net.Close()
			return nil, err
		}
		ckpt, err := core.New(core.Config{Topo: fullTopo, K: k, M: m}, net, clus, nil)
		if err != nil {
			_ = net.Close()
			return nil, err
		}
		perNode := float64(ckpt.Plan().CommVolume().Total()) / float64(fullTopo.World())
		rep, err := ckpt.TimedSave(core.TimedOptions{Resources: res, PacketBytes: shard, Pipeline: true})
		ckpt.Close()
		_ = net.Close()
		if err != nil {
			return nil, err
		}

		rows = append(rows, GroupSizeRow{
			GroupSize:           gs,
			Groups:              groups,
			PerNodePackets:      perNode,
			ClusterRecoveryRate: clusterRate,
			CheckpointTime:      rep.Total,
		})
	}
	if w != nil {
		if err := fprintf(w, "Group-size study (16 nodes x %d GPUs, k=m=size/2, p=%.2f)\n%-6s %-7s %14s %14s %12s\n",
			gpus, p, "size", "groups", "pkts/node", "recovery", "ckpt time"); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := fprintf(w, "%-6d %-7d %14.1f %14.6f %s\n",
				r.GroupSize, r.Groups, r.PerNodePackets, r.ClusterRecoveryRate,
				seconds(r.CheckpointTime)); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
