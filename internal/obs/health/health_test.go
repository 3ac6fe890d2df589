package health

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestLevelText(t *testing.T) {
	cases := []struct {
		l Level
		s string
	}{{OK, "ok"}, {Degraded, "degraded"}, {AtRisk, "at-risk"}, {Unprotected, "unprotected"}}
	for _, c := range cases {
		b, err := c.l.MarshalText()
		if err != nil || string(b) != c.s {
			t.Fatalf("MarshalText(%d) = %q, %v; want %q", int(c.l), b, err, c.s)
		}
		var back Level
		if err := back.UnmarshalText(b); err != nil || back != c.l {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", b, back, err, c.l)
		}
	}
	var l Level
	if err := l.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted bogus level")
	}
	if OK >= Degraded || Degraded >= AtRisk || AtRisk >= Unprotected {
		t.Fatal("levels are not ordered healthy < lost")
	}
}

func TestOutcomeRing(t *testing.T) {
	var r outcomeRing
	for i := 0; i < rateWindow; i++ {
		r.add(true)
	}
	if r.n != rateWindow || r.ok != rateWindow {
		t.Fatalf("full ring: n=%d ok=%d", r.n, r.ok)
	}
	// Overwrite the whole window with failures; counts must follow.
	for i := 0; i < rateWindow; i++ {
		r.add(false)
	}
	if r.n != rateWindow || r.ok != 0 {
		t.Fatalf("after overwrite: n=%d ok=%d", r.n, r.ok)
	}
	r.add(true)
	if r.ok != 1 {
		t.Fatalf("ok=%d after one success", r.ok)
	}
}

func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tr.SetProbe(nil)
	tr.SetSink(nil)
	tr.RoundStarted("save", 1)
	tr.RoundFinished("save", 1, nil)
	tr.NoteMutation(3)
	tr.NoteBudgetExceeded("load")
	tr.NoteStuck("save", "encode", 0, 1, time.Second, time.Millisecond)
	tr.Recompute()
	if rep := tr.Report(); rep.Level != OK {
		t.Fatalf("nil tracker report level = %v", rep.Level)
	}
}

// TestTrackerLevelWalk drives the margin down one failure at a time and
// asserts the level walk OK -> Degraded -> AtRisk -> Unprotected with
// margins m - failures, each transition emitted exactly once.
func TestTrackerLevelWalk(t *testing.T) {
	p := Probe{Version: 0, M: 2}
	tr := NewTracker(func() Probe { return p })
	var events []Event
	tr.SetSink(func(ev Event) { events = append(events, ev) })

	tr.Recompute() // version 0: unprotected
	if rep := tr.Report(); rep.Level != Unprotected {
		t.Fatalf("pre-commit level = %v", rep.Level)
	}

	p.Version = 1
	tr.RoundFinished("save", 1, nil) // commit: OK
	if rep := tr.Report(); rep.Level != OK || rep.Margin != 2 {
		t.Fatalf("after commit: level=%v margin=%d", rep.Level, rep.Margin)
	}

	steps := []struct {
		degraded int
		level    Level
		margin   int
	}{{1, Degraded, 1}, {2, AtRisk, 0}, {3, Unprotected, -1}}
	for _, s := range steps {
		p.DegradedSlots = s.degraded
		p.DeadNodes = append(p.DeadNodes, s.degraded-1)
		tr.Recompute()
		rep := tr.Report()
		if rep.Level != s.level || rep.Margin != s.margin {
			t.Fatalf("degraded=%d: level=%v margin=%d, want %v %d",
				s.degraded, rep.Level, rep.Margin, s.level, s.margin)
		}
		if len(rep.Reasons) == 0 {
			t.Fatalf("degraded=%d: no reasons", s.degraded)
		}
	}

	// Collect the health transitions: each level appears exactly once.
	var walk []Level
	var lastSeq uint64
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Kind == KindHealth {
			walk = append(walk, ev.Level)
		}
	}
	want := []Level{Unprotected, OK, Degraded, AtRisk, Unprotected}
	if len(walk) != len(want) {
		t.Fatalf("health transitions = %v, want %v", walk, want)
	}
	for i := range want {
		if walk[i] != want[i] {
			t.Fatalf("health transitions = %v, want %v", walk, want)
		}
	}

	// A recompute without a level change emits nothing.
	n := len(events)
	tr.Recompute()
	if len(events) != n {
		t.Fatalf("no-op recompute emitted %d event(s)", len(events)-n)
	}
}

func TestTrackerRatesAndStaleness(t *testing.T) {
	p := Probe{Version: 1, M: 2}
	tr := NewTracker(func() Probe { return p })
	tr.RoundFinished("save", 1, nil)
	tr.RoundFinished("save", 2, errors.New("boom"))
	tr.RoundFinished("load", 2, nil)
	tr.NoteBudgetExceeded("load")
	tr.RoundFinished("remote-load", 2, errors.New("slow"))
	tr.NoteMutation(5)
	rep := tr.Report()
	if rep.SaveSuccess != 1 || rep.SaveWindow != 2 {
		t.Fatalf("save rate %d/%d", rep.SaveSuccess, rep.SaveWindow)
	}
	if rep.LoadSuccess != 1 || rep.LoadWindow != 2 {
		t.Fatalf("load rate %d/%d", rep.LoadSuccess, rep.LoadWindow)
	}
	if rep.RoundsSinceCommit != 5 {
		t.Fatalf("rounds since commit = %d", rep.RoundsSinceCommit)
	}
	if rep.BudgetOverruns != 1 {
		t.Fatalf("budget overruns = %d", rep.BudgetOverruns)
	}
	if rep.SinceCommit <= 0 {
		t.Fatalf("since commit = %v", rep.SinceCommit)
	}
	joined := strings.Join(rep.Reasons, "; ")
	for _, want := range []string{"save success 1/2", "load success 1/2", "budget overrun"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("reasons %q missing %q", joined, want)
		}
	}
	// A fresh successful save resets the staleness counter.
	tr.RoundFinished("save", 3, nil)
	if rep := tr.Report(); rep.RoundsSinceCommit != 0 {
		t.Fatalf("rounds since commit after commit = %d", rep.RoundsSinceCommit)
	}
}

func TestTrackerStuckEvent(t *testing.T) {
	tr := NewTracker(func() Probe { return Probe{Version: 1, M: 1} })
	var got []Event
	tr.SetSink(func(ev Event) { got = append(got, ev) })
	tr.NoteStuck("save", "encode", 3, 7, 2*time.Second, time.Second)
	if len(got) != 1 || got[0].Kind != KindStuck {
		t.Fatalf("events = %+v", got)
	}
	ev := got[0]
	if ev.Op != "save" || ev.Phase != "encode" || ev.Node != 3 || ev.Version != 7 ||
		ev.Elapsed != 2*time.Second || ev.Threshold != time.Second {
		t.Fatalf("stuck event = %+v", ev)
	}
	if rep := tr.Report(); rep.StuckRounds != 1 {
		t.Fatalf("stuck rounds = %d", rep.StuckRounds)
	}
}

func TestBusFanOutFilterAndDrop(t *testing.T) {
	b := NewBus()
	var busDrops int
	b.OnDrop(func() { busDrops++ })
	all := b.Subscribe("", 4)
	only := b.Subscribe("job-a", 4)
	tiny := b.Subscribe("", 1)

	b.Publish(Event{Seq: 1, Kind: KindRound, Job: "job-a"})
	b.Publish(Event{Seq: 2, Kind: KindRound, Job: "job-b"})
	b.Publish(Event{Seq: 3, Kind: KindHealth, Job: "job-b"})

	if n := len(all.Events()); n != 3 {
		t.Fatalf("unfiltered sub got %d events", n)
	}
	if n := len(only.Events()); n != 1 {
		t.Fatalf("job-filtered sub got %d events", n)
	}
	if ev := <-only.Events(); ev.Job != "job-a" {
		t.Fatalf("filtered sub got %+v", ev)
	}
	if n := len(tiny.Events()); n != 1 || busDrops != 2 {
		t.Fatalf("tiny sub holds %d events, busDrops=%d; want 1 and 2", n, busDrops)
	}

	only.Close()
	b.Publish(Event{Seq: 4, Job: "job-a"})
	if _, ok := <-only.Events(); ok {
		t.Fatal("closed sub channel still open")
	}

	b.Close()
	b.Publish(Event{Seq: 5}) // dropped silently, must not panic
	// Buffered events (seq 1-4) survive Close; then the channel reports
	// closed.
	for i := 0; i < 4; i++ {
		if _, ok := <-all.Events(); !ok {
			t.Fatalf("buffered event %d lost at close", i)
		}
	}
	if _, ok := <-all.Events(); ok {
		t.Fatal("channel open after bus close")
	}
	// Subscribing after close yields an immediately-closed channel.
	late := b.Subscribe("", 1)
	if _, ok := <-late.Events(); ok {
		t.Fatal("late subscription channel open")
	}
	late.Close() // idempotent, must not panic
	b.Close()    // idempotent
}

func TestWriteSSE(t *testing.T) {
	var buf bytes.Buffer
	ev := Event{Seq: 9, Kind: KindHealth, Job: "j", Level: AtRisk, PrevLevel: Degraded, Margin: 0}
	if err := WriteSSE(&buf, ev); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "event: health\ndata: {") || !strings.HasSuffix(s, "}\n\n") {
		t.Fatalf("SSE frame = %q", s)
	}
	var back Event
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.SplitN(s, "data: ", 2)[1], "data: ")), &back); err != nil {
		t.Fatal(err)
	}
	if back.Seq != 9 || back.Level != AtRisk || back.PrevLevel != Degraded || back.Margin != 0 {
		t.Fatalf("round-trip = %+v", back)
	}
}
