package main

import (
	"bytes"
	"context"
	"fmt"

	"eccheck/internal/bufpool"
	"eccheck/internal/transport"
)

func init() {
	registerLayer(layer{
		module: "transport",
		metrics: []layerMetric{
			{"transport.mem_rtt_us_64k", "us", "lower", "save_round_ms on wide_small"},
			{"transport.mem_gbps_1m", "GB/s", "higher", "save_round_ms on wide_small"},
			{"transport.tcp_rtt_us_64k", "us", "lower", "save_round_ms and load_ms on dense_tcp; must not move dense_mem"},
			{"transport.tcp_gbps_1m", "GB/s", "higher", "save_round_ms and load_ms on dense_tcp; must not move dense_mem"},
			{"transport.bytes_per_payload_byte", "ratio", "lower", "save_round_ms; exact counter of the traced workload, about m*W of the paper (0 behind the daemon)"},
			{"transport.sends_per_round", "count", "lower", "save_round_ms on wide_small; exact counter of the traced workload (0 behind the daemon)"},
		},
		probe: func(c *probeCtx) error {
			for _, kind := range []struct {
				name string
				open func(int) (transport.Network, error)
			}{{"mem", transport.NewMemory}, {"tcp", transport.NewTCPLoopback}} {
				if err := probeNetwork(c, kind.name, kind.open); err != nil {
					return fmt.Errorf("%s: %w", kind.name, err)
				}
			}
			c.emitMedian("transport.bytes_per_payload_byte")
			c.emitMedian("transport.sends_per_round")
			return nil
		},
	})
}

// probeNetwork times a 64 KiB ping-pong and a 1 MiB one-way transfer
// between two endpoints. Send never waits for the peer's Recv, so one
// goroutine can play both ends.
func probeNetwork(c *probeCtx, name string, open func(int) (transport.Network, error)) error {
	net, err := open(2)
	if err != nil {
		return err
	}
	defer net.Close()
	a, err := net.Endpoint(0)
	if err != nil {
		return err
	}
	b, err := net.Endpoint(1)
	if err != nil {
		return err
	}
	ctx := context.Background()
	hop := func(from, to transport.Endpoint, payload []byte) error {
		if err := from.Send(ctx, to.Rank(), "probe", payload); err != nil {
			return err
		}
		got, err := to.Recv(ctx, from.Rank(), "probe")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("received payload differs from the sent one")
		}
		bufpool.Put(got)
		return nil
	}
	small, big := makeChunks(1, 64<<10, c.seed)[0], makeChunks(1, 1<<20, c.seed)[0]
	// The first hop dials; keep it out of the timings.
	if err := hop(a, b, small); err != nil {
		return err
	}
	sec, err := c.timeLoop(func() error {
		if err := hop(a, b, small); err != nil {
			return err
		}
		return hop(b, a, small)
	})
	if err != nil {
		return err
	}
	c.emit("transport."+name+"_rtt_us_64k", sec*1e6)
	v, err := c.gbps(len(big), func() error { return hop(a, b, big) })
	c.emit("transport."+name+"_gbps_1m", v)
	return err
}
