package main

import "eccheck"

// The core layer is not probed: its metrics are read off the reports
// (SaveReport.Phases, LoadReport.Phases, ...) and the allocation counters
// of the traced workload run, which workload.go files into series named
// after the metrics. The phase clocks partition a round's wall time, so
// each phase names the share its layer can save.
func init() {
	moves := "the *_ms metric of the same operation on the traced workload"
	metrics := []layerMetric{
		{"core.save_overlap_ratio", "ratio", "higher", "save_stall_ms (share of the round hidden behind training)"},
		{"core.straggler_lag_ms", "ms", "lower", "save_round_ms"},
		{"core.save_allocs_per_round", "count", "lower", "peak_rss_mb; save_round_ms on wide_small"},
		{"core.load_allocs_per_round", "count", "lower", "peak_rss_mb; load_ms on wide_small"},
		{"core.alloc_bytes_per_payload_byte", "ratio", "lower", "peak_rss_mb; save_round_ms on wide_small"},
		{"core.gc_cycles_per_round", "count", "lower", "peak_rss_mb; save_round_ms on wide_small"},
		{"core.gc_pause_ms_per_round", "ms", "lower", "save_round_ms on wide_small"},
		{"core.round_gbps", "GB/s", "higher", "save_round_ms"},
		{"core.kernel_to_round_ratio", "ratio", "lower", "save_round_ms (erasure.encode_gbps of the workload's code / core.round_gbps)"},
		{"core.incr_changed_buffer_ratio", "ratio", "lower", "incr_save_ms on moe_sparse (1 where every save is full)"},
		{"core.partial_bytes_ratio", "ratio", "lower", "partial_load_ms"},
	}
	for _, ph := range eccheck.SavePhases() {
		metrics = append(metrics, layerMetric{"core.save.phase_ms." + ph, "ms", "lower", moves})
	}
	for _, ph := range eccheck.LoadPhases() {
		metrics = append(metrics, layerMetric{"core.load.phase_ms." + ph, "ms", "lower", moves})
	}
	registerLayer(layer{
		module:  "core",
		metrics: metrics,
		probe: func(c *probeCtx) error {
			for _, m := range metrics {
				switch m.name {
				case "core.gc_cycles_per_round", "core.gc_pause_ms_per_round":
					// Mostly 0 or 1 per round: the mean carries the rate.
					c.emit(m.name, mean(c.traced.get(m.name)))
				case "core.kernel_to_round_ratio": // derive sets it
				default:
					c.emitMedian(m.name)
				}
			}
			return nil
		},
		derive: func(c *probeCtx) {
			// The kernel the workload's rounds encode with: wide_small is
			// the 8+8 shape; the 2+2 kernel stands in for moe_sparse's 4+4.
			kernel := c.out["erasure.encode_gbps_k2m2"]
			if c.workload == "wide_small" {
				kernel = c.out["erasure.encode_gbps_k8m8"]
			}
			ratio := 0.0
			if round := c.out["core.round_gbps"]; round > 0 {
				ratio = kernel / round
			}
			c.emit("core.kernel_to_round_ratio", ratio)
		},
	})
}
