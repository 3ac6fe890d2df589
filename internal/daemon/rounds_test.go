package daemon

import (
	"context"
	"testing"
	"time"

	"eccheck/internal/obs"
	"eccheck/internal/obs/health"
)

// TestRoundCountersFollowTheEventStream: the per-job round counters are
// booked from the round events the job's health stream delivers, so for
// every op they equal what a subscriber saw — one committed save, and one
// load that starts and fails because a machine is dead and not replaced.
func TestRoundCountersFollowTheEventStream(t *testing.T) {
	d := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.Shutdown(ctx)
	})
	sub := d.bus.Subscribe("rounds", 256)
	defer sub.Close()
	ctx := context.Background()
	if _, err := d.Register(testSpec("rounds", "rounds")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Save(ctx, "rounds", SaveRequest{Steps: 1}); err != nil {
		t.Fatal(err)
	}
	noReplace := false
	if _, err := d.Fail("rounds", FailRequest{Node: 0, Replace: &noReplace}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(ctx, "rounds", LoadRequest{}); err == nil {
		t.Fatal("a load with a dead, unreplaced machine succeeded")
	}

	// The sink publishes on the round's own goroutine, so every event of the
	// finished rounds is already buffered.
	type count struct{ started, finished, failures int64 }
	seen := map[string]*count{}
	for drained := false; !drained; {
		select {
		case ev := <-sub.Events():
			if ev.Kind != health.KindRound {
				continue
			}
			if seen[ev.Op] == nil {
				seen[ev.Op] = &count{}
			}
			c := seen[ev.Op]
			if ev.State == "start" {
				c.started++
				continue
			}
			c.finished++
			if ev.Err != "" {
				c.failures++
			}
		default:
			drained = true
		}
	}
	want := map[string]count{"save": {1, 1, 0}, "load": {1, 1, 1}}
	if len(seen) != len(want) {
		t.Fatalf("the stream carried rounds of ops %v, want save and load", seen)
	}
	snap := d.reg.Snapshot()
	for op, w := range want {
		if got := *seen[op]; got != w {
			t.Errorf("op %s: the stream carried %+v round events, want %+v", op, got, w)
		}
		labels := []obs.Label{obs.L("job", "rounds"), obs.L("op", op)}
		for name, n := range map[string]int64{
			"eccheckd_job_rounds_started_total":  seen[op].started,
			"eccheckd_job_rounds_finished_total": seen[op].finished,
			"eccheckd_job_round_failures_total":  seen[op].failures,
		} {
			if v, _ := snap.Counter(name, labels...); v != n {
				t.Errorf("%s{op=%q} = %d, the stream delivered %d", name, op, v, n)
			}
		}
	}
}
