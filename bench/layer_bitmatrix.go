package main

import (
	"fmt"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/erasure"
)

func init() {
	registerLayer(layer{
		module: "bitmatrix",
		metrics: []layerMetric{
			{"bitmatrix.execute_gbps_k2m2", "GB/s", "higher", "save_round_ms on dense_mem"},
			{"bitmatrix.execute_gbps_k8m8", "GB/s", "higher", "save_round_ms on wide_small"},
			{"bitmatrix.xors_per_encode_k2m2", "count", "lower", "save_round_ms on dense_mem (exact count)"},
			{"bitmatrix.xors_per_encode_k8m8", "count", "lower", "save_round_ms on wide_small (exact count)"},
		},
		probe: func(c *probeCtx) error {
			// Window sizes of the workload each code belongs to.
			for _, sh := range []struct{ k, m, size int }{{2, 2, 1 << 20}, {8, 8, 64 << 10}} {
				sched, err := encodeSchedule(sh.k, sh.m)
				if err != nil {
					return err
				}
				data, out := makeChunks(sh.k, sh.size, c.seed), makeChunks(sh.m, sh.size, 0)
				v, err := c.gbps(sh.k*sh.size, func() error { return sched.Execute(data, out) })
				if err != nil {
					return err
				}
				suffix := fmt.Sprintf("_k%dm%d", sh.k, sh.m)
				c.emit("bitmatrix.execute_gbps"+suffix, v)
				c.emit("bitmatrix.xors_per_encode"+suffix, float64(sched.XORCount()))
			}
			return nil
		},
	})
}

// encodeSchedule compiles the parity rows of the (k, m) generator the way
// the erasure layer does, so the bitmatrix executor is timed on the very
// program a save round runs.
func encodeSchedule(k, m int) (*bitmatrix.Schedule, error) {
	code, err := erasure.New(k, m)
	if err != nil {
		return nil, err
	}
	gen := code.Generator()
	rows := make([]int, m)
	for i := range rows {
		rows[i] = k + i
	}
	sub, err := gen.SubMatrix(rows)
	if err != nil {
		return nil, err
	}
	bm, err := bitmatrix.FromMatrix(gen.Field(), sub)
	if err != nil {
		return nil, err
	}
	return bitmatrix.CompileSmart(bm, k, m, int(code.WordSize()))
}
