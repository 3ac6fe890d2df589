package main

import (
	"runtime"

	"eccheck/internal/ecpool"
	"eccheck/internal/erasure"
)

func init() {
	registerLayer(layer{
		module: "ecpool",
		metrics: []layerMetric{
			{"ecpool.encode_gbps_w1", "GB/s", "higher", "save_round_ms on dense_mem"},
			{"ecpool.encode_gbps_wN", "GB/s", "higher", "save_round_ms on dense_mem (N = GOMAXPROCS)"},
			{"ecpool.scaling", "ratio", "higher", "save_round_ms on dense_mem (wN / w1)"},
			{"ecpool.xor_reduce_gbps", "GB/s", "higher", "save_round_ms on dense_mem"},
		},
		probe: func(c *probeCtx) error {
			const size = 1 << 20
			code, err := erasure.New(2, 2)
			if err != nil {
				return err
			}
			data, parity := makeChunks(2, size, c.seed), makeChunks(2, size, 0)
			encode := func(workers int) (float64, error) {
				pool := ecpool.NewPool(workers)
				defer pool.Close()
				return c.gbps(2*size, func() error { return pool.Encode(code, data, parity) })
			}
			w1, err := encode(1)
			if err != nil {
				return err
			}
			wN, err := encode(runtime.GOMAXPROCS(0))
			if err != nil {
				return err
			}
			c.emit("ecpool.encode_gbps_w1", w1)
			c.emit("ecpool.encode_gbps_wN", wN)
			scaling := 0.0
			if w1 > 0 {
				scaling = wN / w1
			}
			c.emit("ecpool.scaling", scaling)

			pool := ecpool.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			v, err := c.gbps(2*size, func() error { return pool.XORReduce(parity[0], data) })
			c.emit("ecpool.xor_reduce_gbps", v)
			return err
		},
	})
}
