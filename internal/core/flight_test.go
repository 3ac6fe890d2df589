package core

import (
	"context"
	"testing"
	"time"

	"eccheck/internal/chaos"
	"eccheck/internal/obs/flight"
)

// TestChaosKillSavePostmortem is the flight-recorder acceptance test: a
// save round killed mid-drain must come back with a diagnostic report
// carrying a non-empty postmortem event tail scoped to that round — the
// terminal event is the round's own failed RoundEnd — while the
// successful round before it carries no postmortem at all.
func TestChaosKillSavePostmortem(t *testing.T) {
	rec := flight.New(1024)
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1},
		func(c *Config) { c.Flight = rec })
	// Wire the injector too, so verdict events land in the same timeline
	// (Initialize does this as well).
	net.SetFlight(rec)
	ctx := context.Background()

	okReport, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save v1: %v", err)
	}
	if len(okReport.Postmortem) != 0 {
		t.Errorf("successful round carries a postmortem tail (%d events)", len(okReport.Postmortem))
	}

	// The victim's 5th send is one of its step-2 broadcasts (2 workers × 3
	// peers), early enough that the capped tail reaches the round's begin.
	const victim = 1
	if err := net.ScheduleKill(victim, 5); err != nil {
		t.Fatal(err)
	}
	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("SaveAsync must survive the snapshot (no sends yet): %v", err)
	}
	report, err := h.Wait(ctx)
	if err == nil {
		t.Fatal("drain with a mid-round kill should abort")
	}
	if !net.Killed(victim) {
		t.Fatal("victim was never killed — the drain failed for the wrong reason")
	}
	if report == nil {
		t.Fatal("failed round must still return a diagnostic report")
	}
	if len(report.Postmortem) == 0 {
		t.Fatal("chaos-killed round carries an empty postmortem tail")
	}
	if n := len(report.Postmortem); n > flight.DefaultPostmortemEvents {
		t.Errorf("postmortem tail has %d events, cap is %d", n, flight.DefaultPostmortemEvents)
	}

	last := report.Postmortem[len(report.Postmortem)-1]
	if last.Type != flight.EvRoundEnd {
		t.Errorf("tail's terminal event is %v, want EvRoundEnd", last.Type)
	}
	if last.Op != "save" || last.Round != report.Version {
		t.Errorf("terminal event is (%q, round %d), want (\"save\", round %d)",
			last.Op, last.Round, report.Version)
	}
	if last.Err == "" {
		t.Error("terminal RoundEnd of a killed round must carry its error")
	}
	// The tail is scoped to this round: it must not reach back into v1's
	// successful timeline, and events are in sequence order.
	sawBegin, sawKill := false, false
	for i, e := range report.Postmortem {
		if i > 0 && e.Seq <= report.Postmortem[i-1].Seq {
			t.Fatalf("tail out of order at %d: seq %d after %d", i, e.Seq, report.Postmortem[i-1].Seq)
		}
		if e.Type == flight.EvRoundEnd && e.Err == "" {
			t.Errorf("tail leaked a previous round's successful end: %+v", e)
		}
		if e.Type == flight.EvRoundBegin && e.Round == report.Version {
			sawBegin = true
		}
		if e.Type == flight.EvChaos && e.Op == "kill" {
			sawKill = true
		}
	}
	if !sawBegin {
		t.Error("tail is missing the round's own RoundBegin")
	}
	if !sawKill {
		t.Error("tail is missing the chaos kill verdict event")
	}
}

// TestAbortedDrainReportInvariant pins the phase-attribution contract on
// the abort path: even when an async round dies mid-drain, the
// diagnostic report must still partition wall time — StallNs (the
// blocking snapshot) plus OverlapNs (the overlapped drain, up to the
// abort) equals Elapsed exactly, and the stall matches the handle's.
func TestAbortedDrainReportInvariant(t *testing.T) {
	rig, net := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1},
		func(c *Config) { c.Flight = flight.New(256) })
	ctx := context.Background()

	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save v1: %v", err)
	}
	if err := net.ScheduleKill(2, 8); err != nil {
		t.Fatal(err)
	}
	h, err := rig.ckpt.SaveAsync(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save async: %v", err)
	}
	report, err := h.Wait(ctx)
	if err == nil {
		t.Fatal("killed drain should abort")
	}
	if report == nil {
		t.Fatal("aborted round must return a diagnostic report")
	}
	if report.StallNs != h.Stall() {
		t.Errorf("report.StallNs %v != handle stall %v", report.StallNs, h.Stall())
	}
	if report.StallNs+report.OverlapNs != report.Elapsed {
		t.Errorf("abort path broke the invariant: StallNs %v + OverlapNs %v != Elapsed %v",
			report.StallNs, report.OverlapNs, report.Elapsed)
	}
	if report.StallNs <= 0 || report.Elapsed <= 0 {
		t.Errorf("aborted report has non-positive timings: stall %v elapsed %v",
			report.StallNs, report.Elapsed)
	}
	if got := rig.ckpt.Version(); got != 1 {
		t.Errorf("version advanced to %d on an aborted drain", got)
	}
}

// TestFlightDisabledSaveUnaffected runs a full save/load cycle with no
// recorder configured — the nil path must behave identically (reports
// carry no postmortem, nothing panics). The zero-alloc claim for the
// nil path is asserted separately in BenchmarkSaveFlightDisabled and in
// the flight package's own alloc test.
func TestFlightDisabledSaveUnaffected(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2)
	ctx := context.Background()
	report, err := rig.ckpt.Save(ctx, rig.dicts)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if report.Postmortem != nil {
		t.Errorf("no recorder configured but report has postmortem: %+v", report.Postmortem)
	}
	if _, lr, err := rig.ckpt.Load(ctx); err != nil {
		t.Fatalf("load: %v", err)
	} else if lr.Postmortem != nil {
		t.Errorf("no recorder configured but load report has postmortem: %+v", lr.Postmortem)
	}
}

// TestPhaseClockZeroAllocWithoutRecorder is the hot-path alloc gate
// (make allocgate runs it in CI): the pipelined save calls Switch once
// per buffer, so with no recorder attached the phase clock must not
// allocate once its phase keys exist — the flight hook is a nil check.
func TestPhaseClockZeroAllocWithoutRecorder(t *testing.T) {
	pc := newPhaseClock(PhaseEncode)
	pc.Switch(PhaseXOR)
	pc.Switch(PhaseP2P)
	pc.Switch(PhaseEncode)
	allocs := testing.AllocsPerRun(1000, func() {
		pc.Switch(PhaseXOR)
		pc.Switch(PhaseP2P)
		pc.Switch(PhaseEncode)
	})
	if allocs != 0 {
		t.Fatalf("phaseClock.Switch with nil recorder: %.1f allocs/op, want 0", allocs)
	}
}

// TestSaveRoundEventsInRecorder checks the happy-path timeline: after a
// successful save the ring holds the round's begin/end pair and at least
// one phase span (the commit barrier always outlasts phaseEventMin on
// this model size — if it doesn't, the round begin/end still anchor it).
func TestSaveRoundEventsInRecorder(t *testing.T) {
	rec := flight.New(512)
	rig, _ := newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1},
		func(c *Config) { c.Flight = rec })
	ctx := context.Background()

	start := time.Now()
	if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
		t.Fatalf("save: %v", err)
	}
	events := rec.Snapshot()
	var begin, end *flight.Event
	for i := range events {
		e := &events[i]
		if e.Op != "save" || e.Round != 1 {
			continue
		}
		switch e.Type {
		case flight.EvRoundBegin:
			begin = e
		case flight.EvRoundEnd:
			end = e
		}
	}
	if begin == nil || end == nil {
		t.Fatalf("round 1 begin/end missing from ring (%d events)", len(events))
	}
	if end.Err != "" {
		t.Errorf("successful round's end carries error %q", end.Err)
	}
	if end.Seq <= begin.Seq || end.TS < begin.TS {
		t.Errorf("round end (seq %d, ts %v) precedes begin (seq %d, ts %v)",
			end.Seq, end.TS, begin.Seq, begin.TS)
	}
	if wall := time.Since(start); end.TS-begin.TS > wall+time.Second {
		t.Errorf("round span %v exceeds wall time %v", end.TS-begin.TS, wall)
	}
}
