package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/obs/health"
)

// wdRig builds a watchdog wired to real observability sinks, without a
// fleet: the checker logic is exercised white-box through check() so the
// tests manipulate phase start times instead of sleeping.
func wdRig(factor float64) (*watchdog, *Checkpointer) {
	c := &Checkpointer{cfg: Config{
		Metrics: obs.NewRegistry(),
		Flight:  flight.New(128),
		Health:  health.NewTracker(nil),
	}}
	wd := newWatchdog(c, factor)
	c.wd = wd
	return wd, c
}

// feedHistory records n closed spans of duration d for (op, phase).
func feedHistory(wd *watchdog, op, phase string, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		wd.sample(op, phase, d)
	}
}

func TestDurRingP99(t *testing.T) {
	var r durRing
	for i := 0; i < wdMinSamples-1; i++ {
		r.add(time.Millisecond)
	}
	if got := r.p99(); got != 0 {
		t.Fatalf("p99 with %d samples = %v, want 0 (insufficient history)", wdMinSamples-1, got)
	}
	r.add(time.Millisecond)
	if got := r.p99(); got != time.Millisecond {
		t.Fatalf("p99 of uniform 1ms window = %v, want 1ms", got)
	}
	// One outlier in a full window must dominate the p99.
	for i := 0; i < wdHistWindow-1; i++ {
		r.add(time.Millisecond)
	}
	r.add(time.Second)
	if got := r.p99(); got != time.Second {
		t.Fatalf("p99 with one 1s outlier = %v, want 1s", got)
	}
	// The window slides: once the outlier ages out, p99 falls back.
	for i := 0; i < wdHistWindow; i++ {
		r.add(time.Millisecond)
	}
	if got := r.p99(); got != time.Millisecond {
		t.Fatalf("p99 after outlier aged out = %v, want 1ms", got)
	}
}

// TestWatchdogFlagsStuckPhase walks the full flag fan-out: a phase open
// for longer than factor × p99 (floored) must increment round_stuck_total,
// append a flight EvStuck carrying the threshold, count into the health
// tracker, and capture a live postmortem tail — exactly once until the
// phase re-arms.
func TestWatchdogFlagsStuckPhase(t *testing.T) {
	wd, c := wdRig(2.0)
	feedHistory(wd, "save", PhaseEncode, wdMinSamples, time.Millisecond)

	s := wd.register(&round{c: c, op: "save", version: 3}, 1)
	if s == nil {
		t.Fatal("register returned nil slot on a live watchdog")
	}
	defer s.unregister()
	// p99 1ms × factor 2 = 2ms, floored to wdFloor (20ms). Backdate the
	// phase start past the floor instead of sleeping.
	s.setPhase(PhaseEncode, time.Now().Add(-2*wdFloor))

	wd.check(s, time.Now())

	if !s.flagged {
		t.Fatal("open phase past threshold not flagged")
	}
	snap := c.cfg.Metrics.Snapshot()
	if v, ok := snap.Counter("round_stuck_total", obs.L("op", "save"), obs.L("phase", PhaseEncode)); !ok || v != 1 {
		t.Fatalf("round_stuck_total{op=save,phase=encode} = %d (present %v), want 1", v, ok)
	}
	var stuck *flight.Event
	for _, ev := range c.cfg.Flight.Snapshot() {
		if ev.Type == flight.EvStuck {
			ev := ev
			stuck = &ev
		}
	}
	if stuck == nil {
		t.Fatal("no EvStuck in the flight ring")
	}
	if stuck.Op != "save" || stuck.Phase != PhaseEncode || stuck.Node != 1 || stuck.Round != 3 {
		t.Fatalf("stuck event context = %+v, want save/encode node 1 round 3", stuck)
	}
	if time.Duration(stuck.Bytes) != wdFloor {
		t.Fatalf("stuck event threshold = %v, want the %v floor", time.Duration(stuck.Bytes), wdFloor)
	}
	if stuck.Dur < 2*wdFloor {
		t.Fatalf("stuck event elapsed = %v, want >= %v (an open interval, not a closed span)", stuck.Dur, 2*wdFloor)
	}
	if got := c.cfg.Health.Report().StuckRounds; got != 1 {
		t.Fatalf("health tracker stuck rounds = %d, want 1", got)
	}
	if pm := c.WatchdogPostmortem(); len(pm) == 0 {
		t.Fatal("no live postmortem captured at the flag")
	}

	// Idempotent while the phase stays open.
	wd.check(s, time.Now())
	if v, _ := c.cfg.Metrics.Snapshot().Counter("round_stuck_total", obs.L("op", "save"), obs.L("phase", PhaseEncode)); v != 1 {
		t.Fatalf("re-check of a flagged phase double-counted: %d", v)
	}

	// A phase switch re-arms: getting stuck again in a later phase is a
	// second flag.
	feedHistory(wd, "save", PhaseBarrier, wdMinSamples, time.Millisecond)
	s.setPhase(PhaseBarrier, time.Now().Add(-2*wdFloor))
	wd.check(s, time.Now())
	if v, _ := c.cfg.Metrics.Snapshot().Counter("round_stuck_total", obs.L("op", "save"), obs.L("phase", PhaseBarrier)); v != 1 {
		t.Fatalf("re-armed phase not flagged: round_stuck_total{phase=barrier} = %d, want 1", v)
	}
}

// TestWatchdogNeedsHistory: a phase with fewer than wdMinSamples closed
// spans is never policed, however long it has been open — cold phases
// must not produce noise flags.
func TestWatchdogNeedsHistory(t *testing.T) {
	wd, c := wdRig(2.0)
	feedHistory(wd, "save", PhaseEncode, wdMinSamples-1, time.Millisecond)
	s := wd.register(&round{c: c, op: "save", version: 1}, 0)
	defer s.unregister()
	s.setPhase(PhaseEncode, time.Now().Add(-time.Minute))
	wd.check(s, time.Now())
	if s.flagged {
		t.Fatal("phase flagged with insufficient history")
	}
	if got := c.cfg.Health.Report().StuckRounds; got != 0 {
		t.Fatalf("stuck rounds = %d, want 0", got)
	}
}

// TestWatchdogNilSafe pins the disabled configuration: every entry point
// must be a no-op on nil receivers so call sites stay unconditional.
func TestWatchdogNilSafe(t *testing.T) {
	var wd *watchdog
	wd.sample("save", PhaseEncode, time.Millisecond)
	if s := wd.register(&round{op: "save", version: 1}, 0); s != nil {
		t.Fatalf("nil watchdog register returned %v, want nil", s)
	}
	wd.stop()
	var s *wdSlot
	s.setPhase(PhaseEncode, time.Now())
	s.unregister()
	c := &Checkpointer{}
	if pm := c.WatchdogPostmortem(); pm != nil {
		t.Fatalf("postmortem without watchdog = %v, want nil", pm)
	}
}

// TestWatchdogStopUnregisters: after stop, register refuses new slots so
// the checker goroutine can exit and Close doesn't leak supervision.
func TestWatchdogStopUnregisters(t *testing.T) {
	wd, c := wdRig(2.0)
	wd.stop()
	if s := wd.register(&round{c: c, op: "save", version: 1}, 0); s != nil {
		t.Fatal("stopped watchdog accepted a slot")
	}
}

// TestPhaseClockWatchdogSampling: a round's clock feeds closed spans into
// the watchdog history and keeps the slot's open phase current; Stop
// unregisters.
func TestPhaseClockWatchdogSampling(t *testing.T) {
	wd, c := wdRig(2.0)
	pc := (&round{c: c, op: "save", version: 7}).clock(2, PhaseEncode)
	if pc.slot == nil {
		t.Fatal("the round's clock has no watchdog slot")
	}
	pc.Switch(PhaseXOR)
	pc.Switch(PhaseEncode)
	wd.mu.Lock()
	encHist := wd.hist[[2]string{"save", PhaseEncode}]
	xorHist := wd.hist[[2]string{"save", PhaseXOR}]
	slots := len(wd.slots)
	wd.mu.Unlock()
	if encHist == nil || encHist.n == 0 || xorHist == nil || xorHist.n == 0 {
		t.Fatal("closed spans not sampled into watchdog history")
	}
	if slots != 1 {
		t.Fatalf("%d slots registered, want 1", slots)
	}
	pc.slot.mu.Lock()
	open := pc.slot.phase
	pc.slot.mu.Unlock()
	if open != PhaseEncode {
		t.Fatalf("slot open phase %q, want %q", open, PhaseEncode)
	}
	pc.Stop()
	wd.mu.Lock()
	slots = len(wd.slots)
	wd.mu.Unlock()
	if slots != 0 {
		t.Fatalf("%d slots after Stop, want 0", slots)
	}
	// unwatch after Stop stays a no-op.
	pc.unwatch()
}

// TestRoundLifecycleZeroAllocWhenDisabled is an alloc gate (make allocgate
// runs it in CI): with no health tracker, no logger, no flight recorder and
// no op deadline, a registered round's begin and end — the announcements,
// the exit from the lifecycle and the handle's completion — cost nil checks
// only, on success and on failure: the library default stays free.
// Registering (open) makes the round, its handle and its context, and is
// done ahead, one round per measured begin and end.
func TestRoundLifecycleZeroAllocWhenDisabled(t *testing.T) {
	rig := newRig(t, 4, 2, 2, 2, noRemote, func(c *Config) { c.OpTimeout = -1 })
	ctx := context.Background()
	const runs = 100
	rounds := make([]*round, 2*(runs+1)) // AllocsPerRun warms up with one extra run
	for i := range rounds {
		r, _, err := rig.ckpt.open(ctx, roundRestore, OpLoad, saveMode{})
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = r
	}
	failed := errors.New("round failed")
	allocs := testing.AllocsPerRun(runs, func() {
		ok, bad := rounds[0], rounds[1]
		rounds = rounds[2:]
		ok.begin(ctx, 1)
		ok.end(nil, nil)
		bad.begin(ctx, 1)
		bad.end(failed, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled round lifecycle: %.1f allocs/op, want 0", allocs)
	}
}

// TestPhaseClockZeroAllocWatchdogDisabled is an alloc gate (make
// allocgate runs it in CI): a round's clock with the watchdog disabled
// (nil) must Switch allocation-free — supervision is strictly
// pay-when-armed.
func TestPhaseClockZeroAllocWatchdogDisabled(t *testing.T) {
	pc := (&round{c: &Checkpointer{}, op: OpSave, version: 1}).clock(0, PhaseEncode)
	pc.Switch(PhaseXOR)
	pc.Switch(PhaseEncode)
	allocs := testing.AllocsPerRun(1000, func() {
		pc.Switch(PhaseXOR)
		pc.Switch(PhaseEncode)
	})
	if allocs != 0 {
		t.Fatalf("phaseClock.Switch with nil watchdog: %.1f allocs/op, want 0", allocs)
	}
}
