package main

import (
	"bytes"
	"context"
	"fmt"

	"eccheck/internal/remotestore"
)

func init() {
	registerLayer(layer{
		module: "remotestore",
		metrics: []layerMetric{
			{"remotestore.put_gbps", "GB/s", "higher", "save_round_ms (persist phase) on moe_sparse"},
			{"remotestore.get_gbps", "GB/s", "higher", "remote_load_ms on moe_sparse"},
		},
		probe: func(c *probeCtx) error {
			// One rank's object of moe_sparse is about 1.5 MB. The store's
			// bandwidth model runs on a virtual clock, so wall time is the
			// copy in and out.
			const size = 1536 << 10
			store, err := remotestore.New(5e9 / 8)
			if err != nil {
				return err
			}
			ctx := context.Background()
			blob := makeChunks(1, size, c.seed)[0]
			v, err := c.gbps(size, func() error {
				_, err := store.Put(ctx, 0, "probe", blob)
				return err
			})
			if err != nil {
				return err
			}
			c.emit("remotestore.put_gbps", v)
			var got []byte
			v, err = c.gbps(size, func() error {
				got, _, err = store.Get(ctx, 0, "probe")
				return err
			})
			if err != nil {
				return err
			}
			c.emit("remotestore.get_gbps", v)
			if !bytes.Equal(got, blob) {
				return fmt.Errorf("fetched object differs from the stored one")
			}
			return nil
		},
	})
}
