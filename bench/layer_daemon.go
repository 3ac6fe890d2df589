package main

import "time"

func init() {
	registerLayer(layer{
		module: "daemon",
		metrics: []layerMetric{
			{"daemon.http_overhead_us", "us", "lower", "save_round_ms on daemon_fleet only (client latency - slot wait - round)"},
			{"daemon.slot_wait_ms", "ms", "lower", "save_round_ms on daemon_fleet only"},
			{"daemon.status_us", "us", "lower", "save_round_ms on daemon_fleet only (GET status while saves run)"},
			{"daemon.save_response_bytes", "bytes", "lower", "save_round_ms on daemon_fleet only"},
		},
		probe: func(c *probeCtx) error {
			// A short daemon_fleet of its own, so the numbers exist in
			// every traced run, whichever workload it traces.
			inst, err := setupFleet(c.seed, true)
			if err != nil {
				return err
			}
			rec := newRecorder()
			deadline := time.Now().Add(4 * c.budget)
			inst.run(func(cycles int) bool {
				return cycles >= 1 && (c.smoke || time.Now().After(deadline))
			}, rec, nil)
			if err := inst.close(); err != nil {
				return err
			}
			if rec.failed > 0 {
				return errFailedOps(rec)
			}
			for _, name := range []string{"daemon.http_overhead_us", "daemon.slot_wait_ms", "daemon.status_us", "daemon.save_response_bytes"} {
				c.emit(name, median(rec.get(name)))
			}
			return nil
		},
	})
}
