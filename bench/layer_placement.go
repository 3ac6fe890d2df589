package main

import (
	"fmt"

	"eccheck"
	"eccheck/internal/placement"
)

func init() {
	registerLayer(layer{
		module: "placement",
		metrics: []layerMetric{
			{"placement.plan_us_n4", "us", "lower", "setup_s only"},
			{"placement.plan_us_n16", "us", "lower", "setup_s only"},
		},
		probe: func(c *probeCtx) error {
			for _, shape := range []libShape{denseShape(eccheck.TransportMemory), wideShape()} {
				cfg := shape.cfg
				topo, err := eccheck.NewTopology(cfg.Nodes, cfg.GPUsPerNode, cfg.TPDegree, cfg.PPStages)
				if err != nil {
					return err
				}
				sec, err := c.timeLoop(func() error {
					_, err := placement.New(topo, cfg.K, cfg.M)
					return err
				})
				if err != nil {
					return err
				}
				c.emit(fmt.Sprintf("placement.plan_us_n%d", cfg.Nodes), sec*1e6)
			}
			return nil
		},
	})
}
