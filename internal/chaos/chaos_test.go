package chaos

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccheck/internal/transport"
)

func newChaosNet(t *testing.T, nodes int, plan Plan) *Network {
	t.Helper()
	inner, err := transport.NewMemory(nodes)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	n, err := Wrap(inner, plan)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestWrapValidation(t *testing.T) {
	inner, err := transport.NewMemory(2)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}
	defer inner.Close()

	if _, err := Wrap(nil, Plan{}); err == nil {
		t.Fatal("Wrap(nil) should fail")
	}
	if _, err := Wrap(inner, Plan{DropProb: 1.5}); err == nil {
		t.Fatal("DropProb out of range should fail")
	}
	if _, err := Wrap(inner, Plan{ErrProb: -0.1}); err == nil {
		t.Fatal("negative ErrProb should fail")
	}
	if _, err := Wrap(inner, Plan{Kills: []Kill{{Node: 2}}}); err == nil {
		t.Fatal("kill node out of range should fail")
	}
	if _, err := Wrap(inner, Plan{Kills: []Kill{{Node: 0, AfterSends: -1}}}); err == nil {
		t.Fatal("negative kill threshold should fail")
	}
}

// TestKillAfterExactSends asserts the send-count schedule is exact: the
// node completes precisely AfterSends sends, then the next attempt dies.
func TestKillAfterExactSends(t *testing.T) {
	const after = 5
	n := newChaosNet(t, 2, Plan{Kills: []Kill{{Node: 0, AfterSends: after}}})
	ep0, err := n.Endpoint(0)
	if err != nil {
		t.Fatalf("Endpoint(0): %v", err)
	}
	ep1, err := n.Endpoint(1)
	if err != nil {
		t.Fatalf("Endpoint(1): %v", err)
	}
	ctx := context.Background()

	for i := 0; i < after; i++ {
		if err := ep0.Send(ctx, 1, "t", []byte{byte(i)}); err != nil {
			t.Fatalf("send %d should survive: %v", i, err)
		}
		if _, err := ep1.Recv(ctx, 0, "t"); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if n.Killed(0) {
		t.Fatal("node 0 killed too early")
	}
	err = ep0.Send(ctx, 1, "t", []byte("doomed"))
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("send %d should return ErrKilled, got %v", after, err)
	}
	if !n.Killed(0) {
		t.Fatal("node 0 should be marked killed")
	}
	// Every further operation on the dead node fails the same way.
	if err := ep0.Send(ctx, 1, "t", nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill send: want ErrKilled, got %v", err)
	}
	if _, err := ep0.Recv(ctx, 1, "t"); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill recv: want ErrKilled, got %v", err)
	}
	// The survivor is unaffected.
	if err := ep1.Send(ctx, 1, "self", []byte("ok")); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	stats := n.Stats()
	if len(stats.Killed) != 1 || stats.Killed[0] != 0 {
		t.Fatalf("stats.Killed = %v, want [0]", stats.Killed)
	}
}

func TestScheduleKillAtRuntime(t *testing.T) {
	n := newChaosNet(t, 2, Plan{})
	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)
	ctx := context.Background()

	// Burn three sends before arming: the threshold is relative to now.
	for i := 0; i < 3; i++ {
		if err := ep0.Send(ctx, 1, "t", nil); err != nil {
			t.Fatalf("warm-up send: %v", err)
		}
		if _, err := ep1.Recv(ctx, 0, "t"); err != nil {
			t.Fatalf("warm-up recv: %v", err)
		}
	}

	killed := make(chan int, 1)
	n.SetOnKill(func(node int) { killed <- node })
	if err := n.ScheduleKill(0, 2); err != nil {
		t.Fatalf("ScheduleKill: %v", err)
	}
	if err := n.ScheduleKill(9, 0); err == nil {
		t.Fatal("ScheduleKill out of range should fail")
	}

	for i := 0; i < 2; i++ {
		if err := ep0.Send(ctx, 1, "t", nil); err != nil {
			t.Fatalf("send %d after arming should survive: %v", i, err)
		}
		if _, err := ep1.Recv(ctx, 0, "t"); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	if err := ep0.Send(ctx, 1, "t", nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("armed send should die, got %v", err)
	}
	select {
	case node := <-killed:
		if node != 0 {
			t.Fatalf("OnKill fired for node %d, want 0", node)
		}
	case <-time.After(time.Second):
		t.Fatal("OnKill hook never fired")
	}
	// Re-arming a dead node is rejected.
	if err := n.ScheduleKill(0, 1); err == nil {
		t.Fatal("ScheduleKill on a dead node should fail")
	}
}

// TestDropsAndErrorsDeterministic runs the same single-goroutine send
// pattern over two identically seeded networks and asserts identical
// fault decisions, plus sane aggregate counts.
func TestDropsAndErrorsDeterministic(t *testing.T) {
	const sends = 400
	plan := Plan{Seed: 42, DropProb: 0.25, ErrProb: 0.25}

	run := func() (Stats, []byte) {
		n := newChaosNet(t, 2, plan)
		ep0, _ := n.Endpoint(0)
		ctx := context.Background()
		verdicts := make([]byte, sends)
		for i := 0; i < sends; i++ {
			err := ep0.Send(ctx, 1, "t", []byte{1})
			switch {
			case err == nil:
				verdicts[i] = 'd' // delivered or dropped — sender can't tell
			case errors.Is(err, ErrInjected):
				verdicts[i] = 'e'
			default:
				t.Fatalf("send %d: unexpected error %v", i, err)
			}
		}
		return n.Stats(), verdicts
	}

	s1, v1 := run()
	s2, v2 := run()
	if string(v1) != string(v2) {
		t.Fatal("same seed, same pattern: verdict sequences differ")
	}
	if s1.Sends != s2.Sends || s1.Dropped != s2.Dropped || s1.Errored != s2.Errored {
		t.Fatalf("same seed: stats differ: %+v vs %+v", s1, s2)
	}
	if s1.Sends != sends {
		t.Fatalf("Sends = %d, want %d", s1.Sends, sends)
	}
	// With p=0.25 each over 400 trials, 40..160 is a >6-sigma window.
	if s1.Dropped < 40 || s1.Dropped > 160 {
		t.Fatalf("Dropped = %d, implausible for p=0.25 over %d sends", s1.Dropped, sends)
	}
	if s1.Errored < 40 || s1.Errored > 160 {
		t.Fatalf("Errored = %d, implausible for p=0.25 over %d sends", s1.Errored, sends)
	}

	// A different seed should make different decisions.
	plan.Seed = 43
	n := newChaosNet(t, 2, plan)
	ep0, _ := n.Endpoint(0)
	verdicts := make([]byte, sends)
	for i := 0; i < sends; i++ {
		if err := ep0.Send(context.Background(), 1, "t", []byte{1}); errors.Is(err, ErrInjected) {
			verdicts[i] = 'e'
		} else {
			verdicts[i] = 'd'
		}
	}
	if string(verdicts) == string(v1) {
		t.Fatal("different seeds produced identical verdict sequences")
	}
}

// TestDroppedSendNeverArrives asserts a drop is silent for the sender and
// invisible to the receiver.
func TestDroppedSendNeverArrives(t *testing.T) {
	n := newChaosNet(t, 2, Plan{Seed: 7, DropProb: 1})
	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)
	if err := ep0.Send(context.Background(), 1, "t", []byte("ghost")); err != nil {
		t.Fatalf("dropped send must look successful, got %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ep1.Recv(ctx, 0, "t"); err == nil {
		t.Fatal("receiver got a payload that was supposed to be dropped")
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := newChaosNet(t, 2, Plan{Latency: lat})
	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)

	start := time.Now()
	if err := ep0.Send(context.Background(), 1, "t", []byte("slow")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := ep1.Recv(context.Background(), 0, "t"); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("delivery took %v, want >= %v", elapsed, lat)
	}

	// A context that expires inside the injected delay aborts the send.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := ep0.Send(ctx, 1, "t", []byte("late")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send under expired deadline: want DeadlineExceeded, got %v", err)
	}
}

// TestKilledIsNotObservedAheadOfTheHook: the send that trips the kill runs the
// OnKill hook after the network's lock is released, so the victim's other
// goroutines could see the node killed — and fail their round — before the
// hook had destroyed anything. Every way of learning of the kill (Killed, the
// victim's next Send and Recv, a second KillNow) returns only once the hook
// has.
func TestKilledIsNotObservedAheadOfTheHook(t *testing.T) {
	n := newChaosNet(t, 2, Plan{Kills: []Kill{{Node: 0, AfterSends: 0}}})
	entered, release := make(chan struct{}), make(chan struct{})
	var destroyed atomic.Bool
	n.SetOnKill(func(int) {
		close(entered)
		<-release
		destroyed.Store(true)
	})
	ep0, _ := n.Endpoint(0)
	ctx := context.Background()
	go func() { _ = ep0.Send(ctx, 1, "t", nil) }() // trips the kill, runs the hook
	<-entered

	observers := []func(){
		func() { n.Killed(0) },
		func() { _ = ep0.Send(ctx, 1, "t", nil) },
		func() { _, _ = ep0.Recv(ctx, 1, "t") },
		func() { _ = n.KillNow(0) },
	}
	early := make(chan int, len(observers))
	var wg sync.WaitGroup
	for i, observe := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			observe()
			if !destroyed.Load() {
				early <- i
			}
		}()
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched() // every chance to return while the hook is held
	}
	close(release)
	wg.Wait()
	close(early)
	for i := range early {
		t.Errorf("observer %d learned of the kill before the OnKill hook returned", i)
	}
	if got := n.Stats().Killed; len(got) != 1 {
		t.Errorf("Stats.Killed = %v, want one kill", got)
	}
}
