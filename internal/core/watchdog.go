package core

import (
	"sort"
	"sync"
	"time"

	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
)

// Watchdog tuning. The factor comes from Config.WatchdogFactor; the rest
// are fixed: a floor below which no phase is ever flagged (cold caches
// and scheduler noise make sub-20ms spans meaningless to police), a
// minimum sample count before a phase's p99 is trusted, and the checker
// cadence.
const (
	wdFloor      = 20 * time.Millisecond
	wdMinSamples = 8
	wdTick       = 10 * time.Millisecond
	wdHistWindow = 64
)

// watchdog flags rounds whose current phase has been running for more
// than factor × the phase's rolling p99 — while the round is still live,
// so an operator sees a wedged barrier or a hung peer before the op
// timeout converts it into a failure. Each round goroutine registers a
// wdSlot carrying its open phase; a single checker goroutine (running
// only while slots exist) compares open-phase ages against thresholds
// learned from closed-phase samples.
type watchdog struct {
	c      *Checkpointer
	factor float64

	mu      sync.Mutex
	hist    map[[2]string]*durRing // (op, phase) -> closed-span history
	slots   map[*wdSlot]struct{}
	running bool
	stopped bool
	// lastPM is the flight tail captured at the most recent flag: a live
	// postmortem of a round that has not failed (yet).
	lastPM []flight.Event
}

// durRing is a fixed window of closed phase durations.
type durRing struct {
	buf  [wdHistWindow]time.Duration
	n    int
	next int
}

func (r *durRing) add(d time.Duration) {
	r.buf[r.next] = d
	r.next = (r.next + 1) % wdHistWindow
	if r.n < wdHistWindow {
		r.n++
	}
}

// p99 returns the window's 99th-percentile duration (0 until wdMinSamples
// spans have been observed).
func (r *durRing) p99() time.Duration {
	if r.n < wdMinSamples {
		return 0
	}
	tmp := make([]time.Duration, r.n)
	copy(tmp, r.buf[:r.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[(r.n*99+99)/100-1]
}

// wdSlot is one live round goroutine's open phase, registered with the
// watchdog while the round runs. A flag's live postmortem is the round's
// tail, so it covers the whole round so far, not just the stuck phase.
type wdSlot struct {
	wd    *watchdog
	r     *round
	node  int
	round int // the round's version at registration

	mu      sync.Mutex
	phase   string
	start   time.Time
	flagged bool
}

// newWatchdog builds (but does not start) a watchdog; the checker
// goroutine runs lazily while slots are registered.
func newWatchdog(c *Checkpointer, factor float64) *watchdog {
	return &watchdog{
		c:      c,
		factor: factor,
		hist:   make(map[[2]string]*durRing),
		slots:  make(map[*wdSlot]struct{}),
	}
}

// sample records one closed phase span into the (op, phase) history. The
// [2]string key keeps the hot Switch path free of string concatenation.
func (w *watchdog) sample(op, phase string, d time.Duration) {
	if w == nil {
		return
	}
	key := [2]string{op, phase}
	w.mu.Lock()
	r := w.hist[key]
	if r == nil {
		r = &durRing{}
		w.hist[key] = r
	}
	r.add(d)
	w.mu.Unlock()
}

// register adds the slot of one of r's goroutines, on node, and lazily
// starts the checker. Returns nil on a nil watchdog so callers chain
// unconditionally.
func (w *watchdog) register(r *round, node int) *wdSlot {
	if w == nil {
		return nil
	}
	s := &wdSlot{wd: w, r: r, node: node, round: r.version, start: time.Now()}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil
	}
	w.slots[s] = struct{}{}
	if !w.running {
		w.running = true
		go w.run()
	}
	w.mu.Unlock()
	return s
}

// setPhase moves the slot's open phase boundary; the flag re-arms so a
// round that gets stuck in two phases is flagged twice.
func (s *wdSlot) setPhase(phase string, now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phase, s.start, s.flagged = phase, now, false
	s.mu.Unlock()
}

// unregister removes the slot when its round goroutine finishes.
func (s *wdSlot) unregister() {
	if s == nil {
		return
	}
	s.wd.mu.Lock()
	delete(s.wd.slots, s)
	s.wd.mu.Unlock()
}

// run is the checker loop: it scans open phases against thresholds until
// no slots remain (or the watchdog stops), then exits.
func (w *watchdog) run() {
	ticker := time.NewTicker(wdTick)
	defer ticker.Stop()
	for range ticker.C {
		w.mu.Lock()
		if w.stopped || len(w.slots) == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		slots := make([]*wdSlot, 0, len(w.slots))
		for s := range w.slots {
			slots = append(slots, s)
		}
		w.mu.Unlock()
		now := time.Now()
		for _, s := range slots {
			w.check(s, now)
		}
	}
}

// check flags the slot if its open phase has exceeded the learned
// threshold.
func (w *watchdog) check(s *wdSlot, now time.Time) {
	s.mu.Lock()
	phase, start, flagged := s.phase, s.start, s.flagged
	s.mu.Unlock()
	if flagged || phase == "" {
		return
	}
	w.mu.Lock()
	hist := w.hist[[2]string{s.r.op, phase}]
	w.mu.Unlock()
	var p99 time.Duration
	if hist != nil {
		w.mu.Lock()
		p99 = hist.p99()
		w.mu.Unlock()
	}
	if p99 == 0 {
		return // not enough history to police this phase yet
	}
	threshold := time.Duration(float64(p99) * w.factor)
	if threshold < wdFloor {
		threshold = wdFloor
	}
	elapsed := now.Sub(start)
	if elapsed < threshold {
		return
	}
	s.mu.Lock()
	if s.flagged || s.phase != phase {
		s.mu.Unlock()
		return // raced with a phase switch; the new phase re-arms
	}
	s.flagged = true
	s.mu.Unlock()

	cfg, op := &w.c.cfg, s.r.op
	if cfg.Metrics != nil {
		// Flags are rare, so the label-interning path is fine here.
		cfg.Metrics.Counter("round_stuck_total", obs.L("op", op), obs.L("phase", phase)).Inc()
	}
	cfg.Flight.Stuck(op, s.node, s.round, phase, elapsed, threshold)
	cfg.Health.NoteStuck(op, phase, s.node, s.round, elapsed, threshold)
	if cfg.Logger != nil {
		cfg.Logger.Warn("round stuck", "op", op, "phase", phase, "node", s.node,
			"round", s.round, "elapsed", elapsed, "threshold", threshold)
	}
	if cfg.Flight != nil {
		tail := s.r.tail()
		w.mu.Lock()
		w.lastPM = tail
		w.mu.Unlock()
	}
}

// stop shuts the checker down; safe on a nil watchdog and idempotent.
func (w *watchdog) stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
}

// WatchdogPostmortem returns the flight-recorder tail captured at the
// most recent stuck-round flag: a live postmortem of a round that had
// not (yet) failed. Nil when the watchdog is disabled or has never
// flagged.
func (c *Checkpointer) WatchdogPostmortem() []flight.Event {
	if c.wd == nil {
		return nil
	}
	c.wd.mu.Lock()
	defer c.wd.mu.Unlock()
	return append([]flight.Event(nil), c.wd.lastPM...)
}
