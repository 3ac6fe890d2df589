package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"eccheck/internal/chaos"
	"eccheck/internal/obs/flight"
	"eccheck/internal/obs/health"
)

// TestRoundLifecycleSurfaces runs every kind of round to success and to
// failure and holds each surface to one begin and one end under one op: the
// flight recorder and the health stream each see exactly one of both, the
// log one start line and one end line, and a failed round's postmortem ends
// in its own terminal event. A save fails on its first send (every send
// errs); a restore fails for want of anything to restore, and succeeds after
// one persisted save.
// Run with -v, it prints each row's health event sequence.
func TestRoundLifecycleSurfaces(t *testing.T) {
	type outcome struct {
		postmortem []flight.Event
		err        error
	}
	save := func(mode saveMode) func(context.Context, *testRig) outcome {
		return func(ctx context.Context, rig *testRig) outcome {
			h, err := rig.ckpt.startSave(ctx, rig.dicts, mode)
			if err != nil {
				return outcome{err: err}
			}
			rep, err := h.Wait(ctx)
			if rep == nil {
				return outcome{err: err}
			}
			return outcome{rep.Postmortem, err}
		}
	}
	restore := func(req restoreReq) func(context.Context, *testRig) outcome {
		return func(ctx context.Context, rig *testRig) outcome {
			rd, err := rig.ckpt.restore(ctx, req)
			if rd.report == nil {
				return outcome{err: err}
			}
			return outcome{rd.report.Postmortem, err}
		}
	}
	all := upTo(8) // 4 nodes × 2 workers
	for _, row := range []struct {
		name, op string
		restore  bool
		run      func(context.Context, *testRig) outcome
	}{
		{"save", OpSave, false, save(saveMode{})},
		{"async", OpSave, false, save(saveMode{waitInflight: true, detach: true})},
		{"incremental", OpIncremental, false, save(saveMode{delta: true})},
		{"load", OpLoad, true, restore(restoreReq{op: OpLoad, want: all, repair: repairAll})},
		{"partial-load", OpPartialLoad, true, restore(restoreReq{op: OpPartialLoad, want: []int{1, 6}, repair: repairNone})},
		{"prefetch", OpPrefetch, true, restore(restoreReq{op: OpPrefetch, repair: 2})},
		{"remote-load", OpRemoteLoad, true, restore(restoreReq{op: OpRemoteLoad, want: all, repair: repairNone, remote: true})},
	} {
		for _, fail := range []bool{false, true} {
			name := row.name + "/ok"
			if fail {
				name = row.name + "/fail"
			}
			t.Run(name, func(t *testing.T) {
				rec := flight.New(1 << 12)
				var mu sync.Mutex
				var rounds []health.Event
				tracker := health.NewTracker(func() health.Probe { return health.Probe{} })
				tracker.SetSink(func(ev health.Event) {
					mu.Lock()
					rounds = append(rounds, ev)
					mu.Unlock()
				})
				var log bytes.Buffer
				observe := func(c *Config) {
					c.RemotePersistEvery = 1
					c.IncrementalCache = true
					c.Flight, c.Health = rec, tracker
					c.Logger = slog.New(slog.NewTextHandler(&log, nil))
				}
				var rig *testRig
				if fail && !row.restore {
					rig, _ = newChaosRig(t, 4, 2, 2, 2, chaos.Plan{Seed: 1, ErrProb: 1}, observe)
				} else {
					rig = newRig(t, 4, 2, 2, 2, observe)
				}
				ctx := context.Background()
				if row.restore && !fail {
					if _, err := rig.ckpt.Save(ctx, rig.dicts); err != nil {
						t.Fatal(err)
					}
				}
				cursor, logFrom := rec.Cursor(), log.Len()
				mu.Lock()
				healthFrom := len(rounds)
				mu.Unlock()

				out := row.run(ctx, rig)
				if (out.err != nil) != fail {
					t.Fatalf("round error = %v, want failure %v", out.err, fail)
				}
				var begins, ends []flight.Event
				for _, ev := range rec.TailSince(cursor, 0) {
					switch ev.Type {
					case flight.EvRoundBegin:
						begins = append(begins, ev)
					case flight.EvRoundEnd:
						ends = append(ends, ev)
					}
				}
				if len(begins) != 1 || len(ends) != 1 || begins[0].Op != row.op || ends[0].Op != row.op {
					t.Errorf("flight: begins %+v, ends %+v, want one of each for %s", begins, ends, row.op)
				}
				mu.Lock()
				seq := rounds[healthFrom:]
				mu.Unlock()
				var starts, finishes int
				var trace []string
				for _, ev := range seq {
					trace = append(trace, fmt.Sprintf("%s/%s/%s/v%d/err=%t", ev.Kind, ev.State, ev.Op, ev.Version, ev.Err != ""))
					if ev.Kind != health.KindRound {
						continue
					}
					if ev.Op != row.op {
						t.Errorf("health: round event for %q in a %s round", ev.Op, row.op)
					}
					switch ev.State {
					case "start":
						starts++
					case "end":
						finishes++
					}
				}
				t.Logf("health: %s", strings.Join(trace, " "))
				if starts != 1 || finishes != 1 {
					t.Errorf("health: %d starts and %d ends, want one of each", starts, finishes)
				}
				lines := log.String()[logFrom:]
				endLine := `msg="round end"`
				if fail {
					endLine = `msg="round failed"`
				}
				if n := strings.Count(lines, `msg="round start"`); n != 1 {
					t.Errorf("log: %d start lines, want 1:\n%s", n, lines)
				}
				if n := strings.Count(lines, `msg="round end"`) + strings.Count(lines, `msg="round failed"`); n != 1 || !strings.Contains(lines, endLine) {
					t.Errorf("log: %d end lines, want one %s:\n%s", n, endLine, lines)
				}
				if !fail {
					return
				}
				if len(out.postmortem) == 0 {
					t.Fatal("failed round has no postmortem")
				}
				if last := out.postmortem[len(out.postmortem)-1]; last.Type != flight.EvRoundEnd || last.Op != row.op || last.Err == "" {
					t.Errorf("postmortem ends in %+v, want the round's own failed EvRoundEnd", last)
				}
			})
		}
	}
}
