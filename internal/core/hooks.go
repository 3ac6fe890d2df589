package core

import "sync/atomic"

// Round operation names passed to RoundHooks callbacks.
const (
	// OpSave is a full checkpoint round (Save or SaveAsync).
	OpSave = "save"
	// OpIncremental is a save round started by SaveIncremental. Without a
	// usable base it is the same round with an all-ones ship-set, and still
	// reports as OpIncremental: the caller asked for one round and gets one
	// pair of callbacks.
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

// RoundHooks observes checkpoint-round lifecycle transitions. A control
// plane multiplexing many Checkpointers (the eccheckd job registry) uses
// them to account rounds per job — including SaveAsync drains that outlive
// the HTTP request that started them — without polling.
//
// RoundStart fires once a round owns the save slot (saves) or, for every
// restore operation, is registered for cancellation and — if it repairs —
// holds the restore slot: before any protocol work.
// RoundEnd fires exactly once per started round, after the round's
// report and error are final. For a save round version is the version
// the round attempted to write; for a load it is the version recovered
// (0 when the round failed before the scan settled on one).
//
// Callbacks run on protocol goroutines — a SaveAsync drain's RoundEnd
// fires on the background drain goroutine — so they must be fast and must
// not call back into the Checkpointer.
type RoundHooks struct {
	// RoundStart observes a round entering flight. Nil disables it.
	RoundStart func(op string, version int)
	// RoundEnd observes a round leaving flight. Nil disables it.
	RoundEnd func(op string, version int, err error)
}

// SetRoundHooks installs (or, with the zero value, clears) the lifecycle
// hooks. Safe to call concurrently with running rounds: a round reads the
// hook set once at each transition, so it sees either the old or the new
// hooks, never a torn pair.
func (c *Checkpointer) SetRoundHooks(h RoundHooks) {
	c.hooks.Store(&h)
}

// roundStart fans a round's entry into flight out to every observer:
// the RoundHooks (the daemon's per-job accounting), the health tracker
// and the structured log. It is the single instrumentation point for
// round starts; all three observers are nil-safe no-ops when unset.
func (c *Checkpointer) roundStart(op string, version int) {
	if h := c.hooks.Load(); h != nil && h.RoundStart != nil {
		h.RoundStart(op, version)
	}
	c.cfg.Health.RoundStarted(op, version)
	if l := c.cfg.Logger; l != nil {
		l.Info("round start", "op", op, "version", version)
	}
}

// roundEnd is roundStart's counterpart for a round leaving flight.
func (c *Checkpointer) roundEnd(op string, version int, err error) {
	if h := c.hooks.Load(); h != nil && h.RoundEnd != nil {
		h.RoundEnd(op, version, err)
	}
	c.cfg.Health.RoundFinished(op, version, err)
	if l := c.cfg.Logger; l != nil {
		if err != nil {
			l.Error("round failed", "op", op, "version", version, "err", err)
		} else {
			l.Info("round end", "op", op, "version", version)
		}
	}
}

// hookSet is the atomically swappable hook pair.
type hookSet = atomic.Pointer[RoundHooks]
