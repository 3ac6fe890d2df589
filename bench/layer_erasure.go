package main

import (
	"fmt"

	"eccheck/internal/erasure"
)

func init() {
	registerLayer(layer{
		module: "erasure",
		metrics: []layerMetric{
			{"erasure.encode_gbps_k2m2", "GB/s", "higher", "save_round_ms on dense_mem, weakly dense_tcp"},
			{"erasure.reconstruct_gbps_k2m2", "GB/s", "higher", "load_ms on dense_mem, weakly dense_tcp"},
			{"erasure.encode_gbps_k8m8", "GB/s", "higher", "save_round_ms on wide_small"},
			{"erasure.reconstruct_gbps_k8m8", "GB/s", "higher", "load_ms on wide_small"},
			{"erasure.decode_schedule_us_k8m8", "us", "lower", "load_ms on wide_small"},
			{"erasure.update_parity_gbps_k4m4", "GB/s", "higher", "incr_save_ms on moe_sparse; must not move dense_*"},
		},
		probe: func(c *probeCtx) error {
			for _, sh := range []struct{ k, m, size int }{{2, 2, 1 << 20}, {8, 8, 64 << 10}} {
				code, err := erasure.New(sh.k, sh.m)
				if err != nil {
					return err
				}
				suffix := fmt.Sprintf("_k%dm%d", sh.k, sh.m)
				data, parity := makeChunks(sh.k, sh.size, c.seed), makeChunks(sh.m, sh.size, 0)
				v, err := c.gbps(sh.k*sh.size, func() error { return code.Encode(data, parity) })
				if err != nil {
					return err
				}
				c.emit("erasure.encode_gbps"+suffix, v)

				// Every data chunk lost: rebuild all k from parity, the
				// decode the workload's Load performs. GB/s is per byte of
				// rebuilt data; schedule compilation is part of the call.
				chunks := make([][]byte, sh.k+sh.m)
				v, err = c.gbps(sh.k*sh.size, func() error {
					for i := range chunks {
						chunks[i] = nil
					}
					copy(chunks[sh.k:], parity)
					return code.Reconstruct(chunks)
				})
				if err != nil {
					return err
				}
				c.emit("erasure.reconstruct_gbps"+suffix, v)
				for i := range data {
					if string(chunks[i]) != string(data[i]) {
						return fmt.Errorf("reconstruct k=%d m=%d: chunk %d differs", sh.k, sh.m, i)
					}
				}
			}

			code, err := erasure.New(8, 8)
			if err != nil {
				return err
			}
			available, wanted := make([]int, 8), make([]int, 8)
			for i := range available {
				available[i], wanted[i] = 8+i, i
			}
			sec, err := c.timeLoop(func() error {
				_, err := code.TransformSchedule(available, wanted)
				return err
			})
			if err != nil {
				return err
			}
			c.emit("erasure.decode_schedule_us_k8m8", sec*1e6)

			code, err = erasure.New(4, 4)
			if err != nil {
				return err
			}
			const size = 64 << 10
			delta, parity := makeChunks(1, size, c.seed)[0], makeChunks(4, size, 1)
			v, err := c.gbps(size, func() error { return code.UpdateParity(0, delta, parity) })
			c.emit("erasure.update_parity_gbps_k4m4", v)
			return err
		},
	})
}
