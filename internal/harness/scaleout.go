package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/cluster"
	"eccheck/internal/core"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
	"eccheck/internal/transport"
)

// ScaleConfig parameterises the scale-out sweep: the streaming save
// pipeline measured across cluster sizes.
type ScaleConfig struct {
	// NodeCounts are the simulated cluster sizes, each run with one worker
	// per node. In flat mode (GroupSize 0) every count must be even and at
	// least 4 (k = m = nodes/2); in grouped mode every count must be a
	// multiple of GroupSize.
	NodeCounts []int
	// GroupSize, when positive, runs the sweep in the paper's grouped
	// scale-out scheme: the cluster divides into independent groups of this
	// many nodes (k = m = GroupSize/2 each), so per-node cost stays
	// constant as the cluster grows. Zero runs one flat (k = m = nodes/2)
	// instance, whose encode and fan-in work grow with the cluster.
	GroupSize int
	// PerRankBytes is the tensor payload per worker (weak scaling: constant
	// per rank, so aggregate payload grows with the cluster).
	PerRankBytes int
	// BufferSize is the streaming window size; PerRankBytes/BufferSize is
	// how many windows a packet streams as.
	BufferSize int
	// LinkLatency is charged to every message on the in-process transport
	// (chaos.Plan.Latency), standing in for a real interconnect's
	// per-message cost. Zero leaves the link ideal.
	LinkLatency time.Duration
	// Rounds is the number of measured steady-state rounds per point (one
	// extra warm-up round always runs first).
	Rounds int
}

// DefaultScaleConfig returns the flat sweep `eccheck-bench scaleout` prints:
// 4 → 256 nodes, 64 KiB per rank split into eight 8 KiB buffer windows, over
// a link standing in for a 100 Gb/s RDMA fabric.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		NodeCounts:   []int{4, 16, 64, 256},
		PerRankBytes: 64 << 10,
		BufferSize:   8 << 10,
		// 20µs per message plus one 8 KiB window's serialization at
		// 12.5 GB/s (8192 B / 12.5 GB/s ≈ 655ns).
		LinkLatency: 20*time.Microsecond + 655*time.Nanosecond,
		Rounds:      5,
	}
}

// DefaultGroupedScaleConfig returns the grouped counterpart: the same
// payload, windows and link, but 8 → 512 nodes divided into independent
// groups of 8 (k = m = 4 each), the paper's scheme for keeping per-node cost
// constant as the cluster grows.
func DefaultGroupedScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig()
	cfg.NodeCounts = []int{8, 64, 256, 512}
	cfg.GroupSize = 8
	return cfg
}

// ScaleRow is one node-count point of the scale-out sweep.
type ScaleRow struct {
	// Nodes, World, K, M describe the point's cluster (one GPU per node).
	// Groups is how many independent code groups the round ran: 1 in flat
	// mode, Nodes/GroupSize in grouped mode (where K and M are per group).
	Nodes  int
	World  int
	K, M   int
	Groups int
	// PacketBytes is the aligned per-worker packet; Buffers is how many
	// streaming windows it spans.
	PacketBytes int
	Buffers     int
	// PayloadBytes is the aggregate tensor payload per round.
	PayloadBytes int64
	// Elapsed is the median steady-state streaming round wall time (the
	// median, not the mean, so a single GC pause on the shared measurement
	// host cannot skew a point).
	Elapsed time.Duration
	// AggMBps is the aggregate save throughput (PayloadBytes/Elapsed);
	// PerNodeMBps divides it by the node count.
	AggMBps     float64
	PerNodeMBps float64
	// StragglerNode and StragglerLag identify the slowest machine of the
	// last measured round and how far it ran behind the cluster mean.
	StragglerNode int
	StragglerLag  time.Duration
}

// ScalingSlope fits aggregate throughput against node count on log-log
// axes (least squares) and returns the exponent s in MB/s ∝ nodes^s: 1.0
// is perfect weak scaling, 0 a flat protocol ceiling, negative a protocol
// that degrades with cluster size. In-process simulation shares one
// machine's cores across all simulated nodes, so the slope measures how
// the protocol's critical path scales, not real-hardware bandwidth.
func ScalingSlope(rows []ScaleRow) float64 {
	var n, sx, sy, sxx, sxy float64
	for _, r := range rows {
		if r.Nodes <= 0 || r.AggMBps <= 0 {
			continue
		}
		x, y := math.Log(float64(r.Nodes)), math.Log(r.AggMBps)
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if n < 2 {
		return 0
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// ScaleOutStudy measures (on the functional layer, real bytes) the
// streaming save pipeline across cluster sizes: aggregate throughput per
// node count and the log-log scaling slope.
func ScaleOutStudy(w io.Writer, cfg ScaleConfig) ([]ScaleRow, error) {
	if len(cfg.NodeCounts) == 0 {
		cfg = DefaultScaleConfig()
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	var rows []ScaleRow
	for _, nodes := range cfg.NodeCounts {
		row, err := scalePoint(cfg, nodes)
		if err != nil {
			return nil, fmt.Errorf("harness: scale point %d nodes: %w", nodes, err)
		}
		rows = append(rows, row)
	}
	if w != nil {
		link := "ideal link"
		if cfg.LinkLatency > 0 {
			link = fmt.Sprintf("link %v", cfg.LinkLatency)
		}
		scheme := "flat k=m=nodes/2"
		if cfg.GroupSize > 0 {
			scheme = fmt.Sprintf("groups of %d, k=m=%d each", cfg.GroupSize, cfg.GroupSize/2)
		}
		if err := fprintf(w, "scale-out streaming sweep (1 GPU/node, %s, %dKiB/rank, %dKiB windows, %s)\n%-6s %8s %8s %12s %12s %12s %12s\n",
			scheme, cfg.PerRankBytes>>10, cfg.BufferSize>>10, link,
			"nodes", "world", "buffers", "payload", "round", "agg MB/s", "straggle"); err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := fprintf(w, "%-6d %8d %8d %10.1fMB %12v %12.1f %12v\n",
				r.Nodes, r.World, r.Buffers, float64(r.PayloadBytes)/1e6,
				r.Elapsed.Round(time.Microsecond), r.AggMBps,
				r.StragglerLag.Round(time.Microsecond)); err != nil {
				return nil, err
			}
		}
		if err := fprintf(w, "scaling slope (agg MB/s vs nodes, log-log fit): %.3f\n", ScalingSlope(rows)); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// scalePoint measures one node count's steady-state streaming rounds.
func scalePoint(cfg ScaleConfig, nodes int) (ScaleRow, error) {
	k, m, groups := nodes/2, nodes/2, 1
	switch {
	case cfg.GroupSize > 0:
		if cfg.GroupSize < 4 || cfg.GroupSize%2 != 0 {
			return ScaleRow{}, fmt.Errorf("group size must be even and at least 4, got %d", cfg.GroupSize)
		}
		if nodes%cfg.GroupSize != 0 {
			return ScaleRow{}, fmt.Errorf("node count %d is not a multiple of group size %d", nodes, cfg.GroupSize)
		}
		k, m, groups = cfg.GroupSize/2, cfg.GroupSize/2, nodes/cfg.GroupSize
	case nodes < 4 || nodes%2 != 0:
		return ScaleRow{}, fmt.Errorf("node count must be even and at least 4, got %d", nodes)
	}
	dicts, err := syntheticDicts(nodes, cfg.PerRankBytes)
	if err != nil {
		return ScaleRow{}, err
	}
	elapsed, rep, err := scaleRounds(cfg, nodes, k, m, dicts)
	if err != nil {
		return ScaleRow{}, err
	}
	var payload int64
	for _, sd := range dicts {
		payload += int64(sd.TensorBytes())
	}
	row := ScaleRow{
		Nodes:         nodes,
		World:         nodes,
		K:             k,
		M:             m,
		Groups:        groups,
		PacketBytes:   rep.PacketBytes,
		Buffers:       (rep.PacketBytes + cfg.BufferSize - 1) / cfg.BufferSize,
		PayloadBytes:  payload,
		Elapsed:       elapsed,
		AggMBps:       float64(payload) / elapsed.Seconds() / 1e6,
		StragglerNode: rep.StragglerNode,
		StragglerLag:  rep.StragglerLag,
	}
	row.PerNodeMBps = row.AggMBps / float64(nodes)
	return row, nil
}

// scaleRounds builds one engine over nodes machines with a (k, m) code — one
// flat code group when k+m is the node count, the paper's grouped scheme of
// nodes/(k+m) independent groups otherwise — runs a warm-up round plus
// cfg.Rounds measured ones, and returns the median round wall time and the
// last round's report.
func scaleRounds(cfg ScaleConfig, nodes, k, m int, dicts []*statedict.StateDict) (time.Duration, *core.SaveReport, error) {
	mem, err := transport.NewMemory(nodes)
	if err != nil {
		return 0, nil, err
	}
	net, err := chaos.Wrap(mem, chaos.Plan{Latency: cfg.LinkLatency})
	if err != nil {
		_ = mem.Close()
		return 0, nil, err
	}
	defer func() { _ = net.Close() }()
	clus, err := cluster.New(nodes, 1)
	if err != nil {
		return 0, nil, err
	}
	topo, err := parallel.NewTopology(nodes, 1, 1, 1)
	if err != nil {
		return 0, nil, err
	}
	ckpt, err := core.New(core.Config{
		Topo:       topo,
		K:          k,
		M:          m,
		BufferSize: cfg.BufferSize,
	}, net, clus, nil)
	if err != nil {
		return 0, nil, err
	}
	defer ckpt.Close()

	ctx := context.Background()
	if _, err := ckpt.Save(ctx, dicts); err != nil {
		return 0, nil, err
	}
	var rep *core.SaveReport
	laps := make([]time.Duration, cfg.Rounds)
	for i := 0; i < cfg.Rounds; i++ {
		start := time.Now()
		if rep, err = ckpt.Save(ctx, dicts); err != nil {
			return 0, nil, err
		}
		laps[i] = time.Since(start)
	}
	return medianDuration(laps), rep, nil
}

// medianDuration returns the median of the measured laps — the sweep's
// robust central tendency, immune to a single GC pause or scheduler stall
// on the shared host all simulated nodes run on.
func medianDuration(laps []time.Duration) time.Duration {
	if len(laps) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), laps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 0 {
		return (sorted[mid-1] + sorted[mid]) / 2
	}
	return sorted[mid]
}

// syntheticDicts builds one state dict per rank holding a single tensor of
// perRank bytes with deterministic rank-dependent contents — the sweep
// measures the protocol, not model construction, so the payload is flat.
func syntheticDicts(world, perRank int) ([]*statedict.StateDict, error) {
	elems := perRank / 4
	if elems < 1 {
		elems = 1
	}
	dicts := make([]*statedict.StateDict, world)
	for rank := 0; rank < world; rank++ {
		data := make([]byte, elems*4)
		for off := 0; off < len(data); off += 4 {
			binary.LittleEndian.PutUint32(data[off:], uint32(rank*2654435761+off))
		}
		t, err := tensor.FromBytes(tensor.Float32, []int{elems}, data)
		if err != nil {
			return nil, err
		}
		sd := statedict.New()
		sd.SetMeta("rank", statedict.Int(int64(rank)))
		if err := sd.SetTensor("payload", t); err != nil {
			return nil, err
		}
		dicts[rank] = sd
	}
	return dicts, nil
}
