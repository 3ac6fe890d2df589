package main

import (
	"fmt"

	"eccheck"
	"eccheck/internal/statedict"
)

func init() {
	registerLayer(layer{
		module: "statedict",
		metrics: []layerMetric{
			{"statedict.decompose_gbps", "GB/s", "higher", "save_stall_ms on dense_mem and dense_tcp"},
			{"statedict.reassemble_gbps", "GB/s", "higher", "load_ms and partial_load_ms"},
		},
		probe: func(c *probeCtx) error {
			sd, err := probeDict(denseShape(eccheck.TransportMemory), c.seed)
			if err != nil {
				return err
			}
			bytes := sd.TensorBytes()
			var dec *statedict.Decomposition
			v, err := c.gbps(bytes, func() error {
				dec, err = sd.Decompose()
				return err
			})
			if err != nil {
				return err
			}
			c.emit("statedict.decompose_gbps", v)
			var back *statedict.StateDict
			v, err = c.gbps(bytes, func() error {
				back, err = statedict.Reassemble(dec.MetaBlob, dec.KeysBlob, dec.TensorData)
				return err
			})
			if err != nil {
				return err
			}
			c.emit("statedict.reassemble_gbps", v)
			if !sd.Equal(back) {
				return fmt.Errorf("reassembled dict differs from the decomposed one")
			}
			return nil
		},
	})
}

// probeDict builds rank 0's state dict of a dense library shape, so a
// layer probe works on buffers shaped like that workload's.
func probeDict(shape libShape, seed uint64) (*eccheck.StateDict, error) {
	cfg := shape.cfg
	topo, err := eccheck.NewTopology(cfg.Nodes, cfg.GPUsPerNode, cfg.TPDegree, cfg.PPStages)
	if err != nil {
		return nil, err
	}
	opt := eccheck.NewBuildOptions()
	opt.Scale, opt.Seed = shape.scale, seed
	return eccheck.BuildWorkerStateDict(eccheck.ModelZoo()[0], topo, 0, opt)
}
