package main

import (
	"fmt"

	"eccheck"
	"eccheck/internal/serialize"
)

func init() {
	registerLayer(layer{
		module: "serialize",
		metrics: []layerMetric{
			{"serialize.marshal_gbps", "GB/s", "higher", "save_stall_ms (small components); load_ms on wide_small"},
			{"serialize.unmarshal_gbps", "GB/s", "higher", "load_ms on wide_small"},
		},
		probe: func(c *probeCtx) error {
			sd, err := probeDict(wideShape(), c.seed)
			if err != nil {
				return err
			}
			var stream []byte
			sec, err := c.timeLoop(func() error {
				stream, err = serialize.Marshal(sd)
				return err
			})
			if err != nil {
				return err
			}
			c.emit("serialize.marshal_gbps", float64(len(stream))/sec/1e9)
			var back *eccheck.StateDict
			v, err := c.gbps(len(stream), func() error {
				back, err = serialize.Unmarshal(stream)
				return err
			})
			if err != nil {
				return err
			}
			c.emit("serialize.unmarshal_gbps", v)
			if !sd.Equal(back) {
				return fmt.Errorf("unmarshalled dict differs from the marshalled one")
			}
			return nil
		},
	})
}
