package core

import (
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

	s := wd.register("save", 1, 3)
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
	s := wd.register("save", 0, 1)
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
	if s := wd.register("save", 0, 1); s != nil {
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
	wd, _ := wdRig(2.0)
	wd.stop()
	if s := wd.register("save", 0, 1); s != nil {
		t.Fatal("stopped watchdog accepted a slot")
	}
}

// TestPhaseClockWatchdogSampling: a watched clock feeds closed spans into
// the watchdog history and keeps the slot's open phase current; Stop
// unregisters.
func TestPhaseClockWatchdogSampling(t *testing.T) {
	wd, _ := wdRig(2.0)
	pc := newPhaseClock(PhaseEncode)
	pc.watchTo(wd, "save", 2, 7)
	if pc.slot == nil {
		t.Fatal("watchTo installed no slot")
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
// runs it in CI): with no health tracker, no logger and no flight recorder,
// the round lifecycle fan-out must cost nil checks only — the library
// default stays free.
func TestRoundLifecycleZeroAllocWhenDisabled(t *testing.T) {
	c := &Checkpointer{}
	failed := errors.New("round failed")
	allocs := testing.AllocsPerRun(1000, func() {
		c.roundStart(OpSave, 1)
		c.roundEnd(OpSave, 1, failed)
	})
	if allocs != 0 {
		t.Fatalf("disabled round lifecycle: %.1f allocs/op, want 0", allocs)
	}
}

// TestPhaseClockZeroAllocWatchdogDisabled is an alloc gate (make
// allocgate runs it in CI): with the watchdog disabled (nil), Switch must
// stay allocation-free — supervision is strictly pay-when-armed.
func TestPhaseClockZeroAllocWatchdogDisabled(t *testing.T) {
	pc := newPhaseClock(PhaseEncode)
	pc.watchTo(nil, "save", 0, 1)
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
