package main

// Scale-out sweep: the streaming save pipeline measured across cluster
// sizes (4 → 256 simulated nodes), against the phase-coarse baseline
// (PipelineDepth 1) at every point. runScaleOut produces the committed
// BENCH_6.json snapshot; runScaleSmoke is the CI guard — a single
// 64-node point with reduced rounds, flat and as 8 × (4+4), that fails if
// the sweep cannot run at that scale.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"eccheck/internal/harness"
)

// scaleRowJSON is one node-count point of the BENCH_6.json dump.
type scaleRowJSON struct {
	Nodes          int     `json:"nodes"`
	World          int     `json:"world"`
	K              int     `json:"k"`
	M              int     `json:"m"`
	Groups         int     `json:"groups"`
	PacketBytes    int     `json:"packet_bytes"`
	Buffers        int     `json:"buffers_per_packet"`
	PayloadBytes   int64   `json:"payload_bytes_per_round"`
	NsPerRound     int64   `json:"ns_per_round"`
	AggMBPerS      float64 `json:"agg_mb_per_s"`
	PerNodeMBPerS  float64 `json:"per_node_mb_per_s"`
	BaselineNs     int64   `json:"phase_coarse_ns_per_round"`
	Speedup        float64 `json:"streaming_speedup"`
	StragglerNode  int     `json:"straggler_node"`
	StragglerLagNs int64   `json:"straggler_lag_ns"`
}

// scaleDump is the full machine-readable scale-out snapshot.
type scaleDump struct {
	Schema string   `json:"schema"`
	Env    benchEnv `json:"env"`
	// Sweep configuration, so successive dumps are comparable.
	PerRankBytes  int     `json:"per_rank_bytes"`
	BufferBytes   int     `json:"buffer_bytes"`
	PipelineDepth int     `json:"pipeline_depth"`
	GroupFanIn    int     `json:"group_fan_in"`
	LinkLatencyNs int64   `json:"link_latency_ns"`
	LinkGBps      float64 `json:"link_gb_per_s"`
	Rounds        int     `json:"rounds"`
	// Rows are the flat-mode (one cluster-wide k = m = nodes/2 instance)
	// measurements; ScalingSlope is the exponent s of the log-log fit
	// agg MB/s ∝ nodes^s (1.0 = perfect weak scaling on real hardware;
	// in-process all nodes share one machine, so the slope tracks
	// protocol overhead, not bandwidth).
	Rows         []scaleRowJSON `json:"rows"`
	ScalingSlope float64        `json:"scaling_slope"`
	// GroupedRows repeat the sweep in the paper's grouped scheme (the
	// same engine laid out as independent code groups of GroupSize nodes
	// each), whose per-node cost is constant by construction — the slope
	// contrast against the flat rows is the scaling story.
	GroupSize           int            `json:"grouped_group_size"`
	GroupedRows         []scaleRowJSON `json:"grouped_rows"`
	GroupedScalingSlope float64        `json:"grouped_scaling_slope"`
}

// scaleEnv captures the measurement machine for the dump header.
func scaleEnv() benchEnv {
	return benchEnv{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// scaleRowsJSON converts harness rows to their JSON form.
func scaleRowsJSON(rows []harness.ScaleRow) []scaleRowJSON {
	out := make([]scaleRowJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, scaleRowJSON{
			Nodes:          r.Nodes,
			World:          r.World,
			K:              r.K,
			M:              r.M,
			Groups:         r.Groups,
			PacketBytes:    r.PacketBytes,
			Buffers:        r.Buffers,
			PayloadBytes:   r.PayloadBytes,
			NsPerRound:     r.Elapsed.Nanoseconds(),
			AggMBPerS:      r.AggMBps,
			PerNodeMBPerS:  r.PerNodeMBps,
			BaselineNs:     r.Baseline.Nanoseconds(),
			Speedup:        r.Speedup,
			StragglerNode:  r.StragglerNode,
			StragglerLagNs: r.StragglerLag.Nanoseconds(),
		})
	}
	return out
}

// runScaleOut runs the full 4→256-node sweep and writes the BENCH_6.json
// snapshot. The table also prints to stderr so interactive runs see the
// numbers without opening the file.
func runScaleOut(path string) error {
	cfg := harness.DefaultScaleConfig()
	rows, err := harness.ScaleOutStudy(os.Stderr, cfg)
	if err != nil {
		return err
	}
	gcfg := harness.DefaultGroupedScaleConfig()
	grows, err := harness.ScaleOutStudy(os.Stderr, gcfg)
	if err != nil {
		return err
	}
	dump := scaleDump{
		Schema:              "eccheck-scale/v1",
		Env:                 scaleEnv(),
		PerRankBytes:        cfg.PerRankBytes,
		BufferBytes:         cfg.BufferSize,
		PipelineDepth:       cfg.PipelineDepth,
		GroupFanIn:          cfg.GroupFanIn,
		LinkLatencyNs:       cfg.LinkLatency.Nanoseconds(),
		LinkGBps:            cfg.LinkGBps,
		Rounds:              cfg.Rounds,
		Rows:                scaleRowsJSON(rows),
		ScalingSlope:        harness.ScalingSlope(rows),
		GroupSize:           gcfg.GroupSize,
		GroupedRows:         scaleRowsJSON(grows),
		GroupedScalingSlope: harness.ScalingSlope(grows),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runScaleSmoke runs the single 64-node point with reduced rounds — the
// `make scale-smoke` CI guard — twice on the one engine: flat (one 32+32
// code group) and grouped (8 × (4+4)). It fails if the streaming pipeline
// cannot complete a round at 64 nodes in either layout or a measurement
// comes back degenerate.
func runScaleSmoke() error {
	for _, groupSize := range []int{0, 8} {
		rows, err := harness.ScaleOutStudy(os.Stdout, harness.ScaleConfig{
			NodeCounts:    []int{64},
			GroupSize:     groupSize,
			PerRankBytes:  32 << 10,
			BufferSize:    8 << 10,
			PipelineDepth: 3,
			GroupFanIn:    8,
			LinkLatency:   20 * time.Microsecond,
			LinkGBps:      12.5,
			Rounds:        2,
			Baseline:      true,
		})
		if err != nil {
			return err
		}
		if len(rows) != 1 || rows[0].Elapsed <= 0 || rows[0].AggMBps <= 0 {
			return fmt.Errorf("scale smoke (group size %d): degenerate measurement: %+v", groupSize, rows)
		}
	}
	return nil
}
