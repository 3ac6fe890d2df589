package main

import "eccheck/internal/gf"

func init() {
	registerLayer(layer{
		module: "gf",
		metrics: []layerMetric{
			{"gf.xor_gbps", "GB/s", "higher", "save_round_ms and load_ms on dense_mem; not daemon_fleet"},
		},
		probe: func(c *probeCtx) error {
			const size = 1 << 20
			bufs := makeChunks(2, size, c.seed)
			v, err := c.gbps(size, func() error { return gf.XORSlice(bufs[0], bufs[1]) })
			c.emit("gf.xor_gbps", v)
			return err
		},
	})
}
