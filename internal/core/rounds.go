package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"eccheck/internal/obs/flight"
	"eccheck/internal/transport"
)

// Round operation names: every surface that observes a round — the health
// event stream, the structured log, the flight recorder and the stuck-round
// watchdog — names it with one of these.
const (
	// OpSave is a full checkpoint round (Save or SaveAsync).
	OpSave = "save"
	// OpIncremental is a save round started by SaveIncremental. Without a
	// usable base it is the same round as Save — every payload window over a
	// zero base — and still reports as OpIncremental: the caller asked for
	// one round and gets one round under one name.
	OpIncremental = "incremental"
	// OpLoad is an in-memory recovery round (Load): every rank wanted back,
	// every degraded node repaired.
	OpLoad = "load"
	// OpRemoteLoad is a catastrophic recovery from the remote tier
	// (LoadFromRemote): every rank wanted back, nothing repaired.
	OpRemoteLoad = "remote-load"
	// OpPartialLoad is a lazy restore of selected workers (LoadPartial):
	// nothing repaired, served from the coordinator.
	OpPartialLoad = "partial-load"
	// OpPrefetch is a warm-standby prefetch (PrefetchChunk): no rank wanted
	// back, one replacement node repaired before recovery asks for it.
	OpPrefetch = "prefetch"
)

// roundKind is what a round is to the lifecycle.
type roundKind uint8

const (
	// roundSave holds the save slot and announces its begin and end.
	roundSave roundKind = iota
	// roundRestore runs beside the slot's holder and announces its begin
	// and end.
	roundRestore
	// roundStep is a membership step (drain, join, replace): it holds the
	// save slot and, instead of a begin and an end, logs its outcome and
	// recomputes the protection score.
	roundStep
)

// round is one save round, restore round or membership step, from the moment
// the lifecycle knows of it until it ends. Being registered is what lets
// Close cancel it and wait for it; begin and end are the only places its
// lifecycle reaches the flight recorder, health and the log, so every
// surface names it with one op and one version.
type round struct {
	c    *Checkpointer
	h    *SaveHandle // what Close cancels and waits for
	kind roundKind
	// op names the round: an Op* constant, or a membership step's name.
	op string
	// node is the node a membership step acts on.
	node int
	// version is the round's number: the version a save writes; the version
	// a restore asked for until it settles on the one it restores.
	version int
	// started and cursor are fixed by begin: the round's wall-clock start
	// and the flight position its postmortem starts at.
	started time.Time
	cursor  uint64
}

// lifecycle tracks every round in flight so Close can cancel and wait for
// them before resources are released, and serializes the rounds that hold
// the save slot.
type lifecycle struct {
	mu     sync.Mutex
	closed bool
	// slot is the save slot's holder — a save round or a membership step —
	// or nil. At most one save round runs at a time.
	slot *round
	// rounds holds every registered round, the slot's holder included.
	rounds map[*round]struct{}
}

// open registers a round with the lifecycle. A save round or membership step
// claims the save slot: with mode.waitInflight it waits for the holder,
// honoring ctx, and otherwise fails with ErrSaveInFlight. A restore round
// registers beside the holder. The returned context is the round's: Close
// cancels it, and end releases it. mode.detach unbinds it from ctx's
// cancellation, keeping ctx's values.
func (c *Checkpointer) open(ctx context.Context, kind roundKind, op string, mode saveMode) (*round, context.Context, error) {
	for {
		c.lc.mu.Lock()
		if c.lc.closed {
			c.lc.mu.Unlock()
			return nil, nil, ErrClosed
		}
		cur := c.lc.slot
		if cur == nil || kind == roundRestore {
			r := &round{c: c, kind: kind, op: op, h: &SaveHandle{done: make(chan struct{})}}
			rctx := ctx
			if mode.detach {
				rctx = context.WithoutCancel(ctx)
			}
			rctx, r.h.cancel = context.WithCancel(rctx)
			if kind != roundRestore {
				c.lc.slot = r
			}
			c.lc.rounds[r] = struct{}{}
			c.lc.mu.Unlock()
			return r, rctx, nil
		}
		c.lc.mu.Unlock()
		if !mode.waitInflight {
			return nil, nil, ErrSaveInFlight
		}
		select {
		case <-cur.h.Done():
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// waitSlot blocks until nothing holds the save slot. A host-memory restore
// calls it so it never reads host memory mid-commit; the wait is bounded
// because every save drain and membership step is bounded by the per-op
// deadlines.
func (c *Checkpointer) waitSlot(ctx context.Context) error {
	for {
		c.lc.mu.Lock()
		cur := c.lc.slot
		c.lc.mu.Unlock()
		if cur == nil {
			return nil
		}
		select {
		case <-cur.h.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// begin starts the round once it is registered and holds its gates —
// queueing for them is not the round's work. It fixes the version, the
// start time and the flight cursor, and announces the round to health, the
// log and the flight recorder (a membership step announces nothing). The
// returned context bounds every transport and remote-tier operation below it
// by OpTimeout.
func (r *round) begin(ctx context.Context, version int) context.Context {
	c := r.c
	r.version, r.started, r.cursor = version, time.Now(), c.cfg.Flight.Cursor()
	if r.kind != roundStep {
		c.cfg.Health.RoundStarted(r.op, version)
		if l := c.cfg.Logger; l != nil {
			l.Info("round start", "op", r.op, "version", version)
		}
		c.cfg.Flight.RoundBegin(r.op, version)
	}
	if c.cfg.OpTimeout <= 0 {
		return ctx
	}
	return transport.WithOpTimeout(ctx, c.cfg.OpTimeout)
}

// end ends the round, exactly once, and returns the error it ended with: an
// error of a round Close cancelled wraps ErrSaveAborted. The terminal event
// of a round that began goes to the flight recorder first, so a postmortem that settle cuts with
// tail includes it; settle, when set, finishes the caller's report. Then the
// round leaves the lifecycle, health and the log see its end, and the handle
// completes — in that order, so whoever Wait releases finds all of it done.
func (r *round) end(err error, settle func()) error {
	c := r.c
	if err != nil && r.h.aborted.Load() {
		err = fmt.Errorf("%w: %w", ErrSaveAborted, err)
	}
	// A restore that never got past its gates never began: it ends unseen.
	announce := r.kind != roundStep && !r.started.IsZero()
	if announce {
		c.cfg.Flight.RoundEnd(r.op, r.version, err)
	}
	if settle != nil {
		settle()
	}
	c.lc.mu.Lock()
	if c.lc.slot == r {
		c.lc.slot = nil
	}
	delete(c.lc.rounds, r)
	c.lc.mu.Unlock()
	if r.kind == roundStep {
		if l := c.cfg.Logger; l != nil {
			if err != nil {
				l.Error("membership step failed", "step", r.op, "node", r.node, "err", err)
			} else {
				l.Info("membership step", "step", r.op, "node", r.node)
			}
		}
		c.cfg.Health.Recompute()
	} else if announce {
		c.cfg.Health.RoundFinished(r.op, r.version, err)
		if l := c.cfg.Logger; l != nil {
			if err != nil {
				l.Error("round failed", "op", r.op, "version", r.version, "err", err)
			} else {
				l.Info("round end", "op", r.op, "version", r.version)
			}
		}
	}
	r.h.err = err
	r.h.cancel()
	close(r.h.done)
	return err
}

// tail is the round's postmortem: the newest flight events since it began,
// at most flight.DefaultPostmortemEvents of them. Nil without a recorder.
func (r *round) tail() []flight.Event {
	return r.c.cfg.Flight.TailSince(r.cursor, flight.DefaultPostmortemEvents)
}

// clock starts a phase clock charging phase for one of the round's
// goroutines on node (-1: the coordinator). Its closed intervals land in the
// flight recorder and the watchdog's history, and the watchdog polices its
// open phase until Stop or unwatch.
func (r *round) clock(node int, phase string) *phaseClock {
	p := newPhaseClock(phase)
	p.rec, p.op, p.node, p.round = r.c.cfg.Flight, r.op, node, r.version
	if wd := r.c.wd; wd != nil {
		p.wd = wd
		p.slot = wd.register(r, node)
		p.slot.setPhase(phase, p.mark)
	}
	return p
}
