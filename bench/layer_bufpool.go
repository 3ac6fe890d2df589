package main

import "eccheck/internal/bufpool"

func init() {
	registerLayer(layer{
		module: "bufpool",
		metrics: []layerMetric{
			{"bufpool.get_put_ns", "ns", "lower", "peak_rss_mb everywhere; save_round_ms on wide_small"},
			{"bufpool.hit_ratio", "ratio", "higher", "peak_rss_mb everywhere; save_round_ms on wide_small (counters of the traced workload's System; 0 behind the daemon)"},
		},
		probe: func(c *probeCtx) error {
			const batch = 1000
			pool := bufpool.New()
			sec, err := c.timeLoop(func() error {
				for i := 0; i < batch; i++ {
					pool.Put(pool.Get(64 << 10))
				}
				return nil
			})
			c.emit("bufpool.get_put_ns", sec*1e9/batch)
			c.emitMedian("bufpool.hit_ratio")
			return err
		},
	})
}
