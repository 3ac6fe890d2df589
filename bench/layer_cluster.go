package main

import (
	"bytes"
	"fmt"

	"eccheck/internal/cluster"
)

func init() {
	registerLayer(layer{
		module: "cluster",
		metrics: []layerMetric{
			{"cluster.store_summed_gbps", "GB/s", "higher", "save_round_ms (stage/promote) on dense_*"},
			{"cluster.fetch_summed_gbps", "GB/s", "higher", "load_ms (scan/fetch) on dense_*; partial_load_ms"},
		},
		probe: func(c *probeCtx) error {
			const size = 1 << 20
			clus, err := cluster.New(4, 2)
			if err != nil {
				return err
			}
			blob := makeChunks(1, size, c.seed)[0]
			v, err := c.gbps(size, func() error { return cluster.StoreSummed(clus, 0, "probe", blob) })
			if err != nil {
				return err
			}
			c.emit("cluster.store_summed_gbps", v)
			var got []byte
			v, err = c.gbps(size, func() error {
				got, err = cluster.FetchSummed(clus, 0, "probe")
				return err
			})
			if err != nil {
				return err
			}
			c.emit("cluster.fetch_summed_gbps", v)
			if !bytes.Equal(got, blob) {
				return fmt.Errorf("fetched blob differs from the stored one")
			}
			return nil
		},
	})
}
