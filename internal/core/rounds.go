package core

// Round operation names: every surface that observes a round — the health
// event stream, the structured log, the flight recorder and the stuck-round
// watchdog — names it with one of these.
const (
	// OpSave is a full checkpoint round (Save or SaveAsync).
	OpSave = "save"
	// OpIncremental is a save round started by SaveIncremental. Without a
	// usable base it is the same round with an all-ones ship-set, and still
	// reports as OpIncremental: the caller asked for one round and gets one
	// round under one name.
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

// roundStart fans a round's entry into flight out to the health tracker,
// whose event stream is how a control plane accounts rounds per job, and
// to the structured log. It fires once a round owns the save slot (saves)
// or, for every restore operation, is registered for cancellation and — if
// it repairs — holds the restore slot: before any protocol work. Both
// observers are nil-safe no-ops when unset.
func (c *Checkpointer) roundStart(op string, version int) {
	c.cfg.Health.RoundStarted(op, version)
	if l := c.cfg.Logger; l != nil {
		l.Info("round start", "op", op, "version", version)
	}
}

// roundEnd is roundStart's counterpart, fired exactly once per started
// round after its report and error are final. For a save round version is
// the version the round attempted to write; for a load it is the version
// recovered (0 when the round failed before the scan settled on one).
func (c *Checkpointer) roundEnd(op string, version int, err error) {
	c.cfg.Health.RoundFinished(op, version, err)
	if l := c.cfg.Logger; l != nil {
		if err != nil {
			l.Error("round failed", "op", op, "version", version, "err", err)
		} else {
			l.Info("round end", "op", op, "version", version)
		}
	}
}
