package main

import (
	"context"
	"io"
	"log/slog"
	"time"

	"eccheck"
)

func init() {
	registerLayer(layer{
		module: "obs",
		metrics: []layerMetric{
			{"obs.flight_events_per_round", "count", "lower", "save_round_ms on daemon_fleet; no change on the four surfaces-off workloads"},
			{"obs.snapshot_us", "us", "lower", "save_round_ms on daemon_fleet (System.Metrics())"},
			{"obs.enabled_overhead_ratio", "ratio", "lower", "save_round_ms on daemon_fleet; no change on the four surfaces-off workloads"},
		},
		probe: probeObs,
	})
}

// probeObs saves the same wide_small-shaped state through two systems,
// one with every observability surface on (flight recorder, a logger that
// discards, the stuck-round watchdog) and one with all of them off,
// alternating so drift hits both alike. The ratio of the two round
// medians is what the surfaces cost when they are on.
func probeObs(c *probeCtx) error {
	shape := wideShape()
	on := shape.cfg
	on.FlightEvents = 4096
	on.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	on.WatchdogFactor = 4
	var systems [2]*eccheck.System
	for i, cfg := range []eccheck.Config{shape.cfg, on} {
		sys, err := eccheck.Initialize(cfg)
		if err != nil {
			return err
		}
		defer sys.Close()
		systems[i] = sys
	}
	opt := eccheck.NewBuildOptions()
	opt.Scale, opt.Seed = shape.scale, c.seed
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], systems[0].Topology(), opt)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var roundMs [2][]float64
	rounds := 0
	cursor := systems[1].FlightRecorder().Cursor()
	start := time.Now()
	for {
		for i, sys := range systems {
			t0 := time.Now()
			if _, err := sys.Save(ctx, dicts); err != nil {
				return err
			}
			roundMs[i] = append(roundMs[i], ms(time.Since(t0)))
		}
		rounds++
		if c.smoke || (rounds >= 3 && time.Since(start) >= 4*c.budget) {
			break
		}
	}
	events := systems[1].FlightRecorder().Cursor() - cursor
	c.emit("obs.flight_events_per_round", float64(events)/float64(rounds))
	ratio := 0.0
	if off := median(roundMs[0]); off > 0 {
		ratio = median(roundMs[1]) / off
	}
	c.emit("obs.enabled_overhead_ratio", ratio)
	sec, err := c.timeLoop(func() error {
		_ = systems[1].Metrics()
		return nil
	})
	c.emit("obs.snapshot_us", sec*1e6)
	return err
}
