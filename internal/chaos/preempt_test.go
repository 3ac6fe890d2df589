package chaos

import (
	"context"
	"testing"
	"time"

	"eccheck/internal/transport"
)

func TestPreemptionPlanValidation(t *testing.T) {
	inner, err := transport.NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := Wrap(inner, Plan{Preemptions: []Preemption{{Node: 2, Notice: time.Second}}}); err == nil {
		t.Error("preemption node out of range: want error")
	}
	if _, err := Wrap(inner, Plan{Preemptions: []Preemption{{Node: 0, AfterSends: -1, Notice: time.Second}}}); err == nil {
		t.Error("negative AfterSends: want error")
	}
	if _, err := Wrap(inner, Plan{Preemptions: []Preemption{{Node: 0}}}); err == nil {
		t.Error("zero notice: want error (schedule a Kill instead)")
	}
}

// A planned preemption: the notice fires after exactly AfterSends sends
// (the send itself still succeeds — a warning is not a fault), the
// callback sees the deadline, and the kill lands only when it expires.
func TestPlannedPreemptionNoticeThenKill(t *testing.T) {
	const after = 3
	notice := 80 * time.Millisecond
	n := newChaosNet(t, 2, Plan{Preemptions: []Preemption{{Node: 0, AfterSends: after, Notice: notice}}})

	type fired struct {
		node     int
		deadline time.Time
	}
	noticeCh := make(chan fired, 1)
	n.SetOnNotice(func(node int, deadline time.Time) {
		noticeCh <- fired{node, deadline}
	})
	killCh := make(chan int, 1)
	n.SetOnKill(func(node int) { killCh <- node })

	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)
	ctx := context.Background()
	for i := 0; i <= after; i++ {
		if err := ep0.Send(ctx, 1, "t", []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v (a notice must not fail the send)", i, err)
		}
		if _, err := ep1.Recv(ctx, 0, "t"); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if i < after {
			select {
			case f := <-noticeCh:
				t.Fatalf("notice fired early at send %d: %+v", i, f)
			default:
			}
		}
	}
	var f fired
	select {
	case f = <-noticeCh:
	case <-time.After(time.Second):
		t.Fatal("notice callback never fired")
	}
	if f.node != 0 {
		t.Fatalf("notice for node %d, want 0", f.node)
	}
	if until := time.Until(f.deadline); until <= 0 || until > notice {
		t.Fatalf("deadline %v out of the notice window", until)
	}
	// A second notice for the doomed node keeps the platform's deadline.
	if d, err := n.SchedulePreemption(0, time.Hour); err != nil || !d.Equal(f.deadline) {
		t.Fatalf("SchedulePreemption on a noticed node = (%v, %v), want (%v, nil)", d, err, f.deadline)
	}
	if n.Killed(0) {
		t.Fatal("node killed before its deadline")
	}
	// The deadline lands.
	select {
	case node := <-killCh:
		if node != 0 || !n.Killed(0) {
			t.Fatalf("deadline killed node %d (node 0 killed: %v)", node, n.Killed(0))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("node 0 never killed after notice expiry")
	}
	stats := n.Stats()
	if stats.Notices != 1 {
		t.Fatalf("Stats.Notices = %d, want 1", stats.Notices)
	}
	if len(stats.Killed) != 1 || stats.Killed[0] != 0 {
		t.Fatalf("Stats.Killed = %v, want [0]", stats.Killed)
	}
}

func TestSchedulePreemptionRuntime(t *testing.T) {
	n := newChaosNet(t, 2, Plan{})
	if _, err := n.SchedulePreemption(5, time.Second); err == nil {
		t.Error("out-of-range node: want error")
	}
	if _, err := n.SchedulePreemption(0, 0); err == nil {
		t.Error("zero notice: want error")
	}
	d1, err := n.SchedulePreemption(0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Re-scheduling an already-noticed node returns the EXISTING deadline:
	// the platform set it, callers cannot move it.
	d2, err := n.SchedulePreemption(0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Fatalf("second schedule moved the deadline: %v vs %v", d1, d2)
	}
	if n.Stats().Notices != 1 {
		t.Fatalf("Notices = %d, want 1 (re-schedule is not a new notice)", n.Stats().Notices)
	}
	// KillNow surrenders early, before the deadline.
	if err := n.KillNow(0); err != nil {
		t.Fatalf("KillNow: %v", err)
	}
	if !n.Killed(0) {
		t.Fatal("KillNow did not kill")
	}
	if err := n.KillNow(0); err != nil {
		t.Fatalf("KillNow must be idempotent, got %v", err)
	}
	if _, err := n.SchedulePreemption(0, time.Second); err == nil {
		t.Error("scheduling a dead node: want error")
	}
}

// Revive must disarm the pending deadline: a replacement machine in the
// same slot must not be killed by the old machine's preemption timer.
func TestReviveDisarmsPendingDeadline(t *testing.T) {
	n := newChaosNet(t, 2, Plan{})
	notice := 60 * time.Millisecond
	if _, err := n.SchedulePreemption(0, notice); err != nil {
		t.Fatal(err)
	}
	if err := n.Revive(0); err != nil {
		t.Fatal(err)
	}
	// Nothing announces a timer that does not fire: outwait the disarmed
	// deadline.
	time.Sleep(notice + 50*time.Millisecond)
	if n.Killed(0) {
		t.Fatal("stale preemption timer killed the replacement")
	}
	// The slot can be preempted again from scratch.
	if _, err := n.SchedulePreemption(0, time.Hour); err != nil {
		t.Fatalf("re-preempting a revived slot: %v", err)
	}
	if n.Stats().Notices != 2 {
		t.Fatalf("Notices = %d, want 2", n.Stats().Notices)
	}
}

// TestStaleDeadlineTimerCannotKillTheReplacement fires the stale timer on
// purpose. A deadline timer that has expired cannot be stopped any more: its
// goroutine may be waiting for the network's lock while Revive swaps the
// machine under it. The test holds that lock, starts what the timer starts —
// killNow with the generation the notice was armed under — revives the slot,
// and only then lets the kill run. It must find a newer generation and leave
// the replacement alone.
func TestStaleDeadlineTimerCannotKillTheReplacement(t *testing.T) {
	n := newChaosNet(t, 2, Plan{})
	hooked := 0
	n.SetOnKill(func(int) { hooked++ })
	if _, err := n.SchedulePreemption(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	armed := n.gen[0]
	fired := make(chan struct{})
	go func() {
		defer close(fired)
		n.killNow(0, armed) // blocks on n.mu, as the expired timer's goroutine does
	}()
	n.reviveLocked(0)
	n.mu.Unlock()
	<-fired
	if n.Killed(0) || hooked != 0 || len(n.Stats().Killed) != 0 {
		t.Fatalf("a deadline timer armed for the old machine killed its replacement (killed %v, hook calls %d)", n.Killed(0), hooked)
	}
	// The replacement's own notice is a new generation and does land.
	if _, err := n.SchedulePreemption(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	armed = n.gen[0]
	n.mu.Unlock()
	n.killNow(0, armed)
	if !n.Killed(0) || hooked != 1 {
		t.Fatalf("the current generation's deadline did not kill (killed %v, hook calls %d)", n.Killed(0), hooked)
	}
}
