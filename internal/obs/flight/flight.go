// Package flight implements a bounded, low-overhead ring-buffer flight
// recorder for event-level tracing of checkpoint rounds.
//
// Where internal/obs answers "how much / how long on aggregate", flight
// answers "what happened, in what order, on which node" — a typed event
// timeline of round begin/end markers, per-node phase spans, per-peer
// P2P transfers, chaos injections, corruption-as-erasure recoveries,
// buffer-pool discards, simulated-link busy spans and remote-store
// traffic. The ring is fixed-size: old events are overwritten, never
// allocated onto, so a recorder can stay attached to a production run
// indefinitely.
//
// The same nil-safety doctrine as internal/obs applies: a nil *Recorder
// is valid, and every emit helper on it is a nil-check no-op costing
// about a nanosecond with zero allocations. Hot paths therefore call
// emit helpers unconditionally; enabling tracing is a wiring decision,
// not a code change.
package flight

import (
	"sync"
	"time"
)

// EventType discriminates the records in the ring.
type EventType uint8

// Event taxonomy. See DESIGN.md §8 for field usage per type.
const (
	// EvRoundBegin marks the start of a save or load round. Op names
	// the round kind, Round the checkpoint version being written or
	// recovered.
	EvRoundBegin EventType = iota + 1
	// EvRoundEnd marks round completion; Err is empty on success.
	EvRoundEnd
	// EvPhase is a closed per-node phase span (TS..TS+Dur). Node is -1
	// for cluster-wide spans such as the commit barrier.
	EvPhase
	// EvSend is a completed transport send from Node to Peer.
	EvSend
	// EvRecv is a completed transport receive on Node from Peer.
	EvRecv
	// EvChaos is a fault injection: Tag carries the verdict
	// (kill/drop/error) and the wire tag it hit.
	EvChaos
	// EvCorruption is a checksum miss treated as an erasure; Tag names
	// the corrupt blob.
	EvCorruption
	// EvPoolDiscard is a buffer-pool put rejected (off-class size).
	EvPoolDiscard
	// EvLinkBusy is a busy span on a simulated link, in virtual time.
	EvLinkBusy
	// EvRemote is a remote-store put or get (Op "put"/"get").
	EvRemote
	// EvMembership is a membership-protocol step: drains and custody
	// restores (Op names the step).
	EvMembership
	// EvBuffer is a closed buffer-window span of the streaming save
	// pipeline: one node's pipeline buffer from the instant the encode
	// loop acquired its window credit until its last owed delivery landed
	// and the buffer committed. Peer carries the buffer index; gaps
	// between consecutive EvBuffer spans on one node are pipeline bubbles.
	EvBuffer
	// EvBudget is a restore-latency SLO violation: a load round whose wall
	// time (Dur) overran the configured budget (Bytes carries the budget in
	// nanoseconds, the only spare numeric field). Op names the round kind.
	EvBudget
	// EvStuck is a watchdog flag on a live round: the phase named by
	// Phase has been running for Dur, past the tripped threshold (Bytes
	// carries the threshold in nanoseconds). Emitted while the round is
	// still in flight — unlike every other event it describes an open,
	// not a closed, interval.
	EvStuck
)

// String returns a short stable name for the event type.
func (t EventType) String() string {
	switch t {
	case EvRoundBegin:
		return "round_begin"
	case EvRoundEnd:
		return "round_end"
	case EvPhase:
		return "phase"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvChaos:
		return "chaos"
	case EvCorruption:
		return "corruption"
	case EvPoolDiscard:
		return "pool_discard"
	case EvLinkBusy:
		return "link_busy"
	case EvRemote:
		return "remote"
	case EvMembership:
		return "membership"
	case EvBuffer:
		return "buffer"
	case EvBudget:
		return "budget"
	case EvStuck:
		return "stuck"
	default:
		return "unknown"
	}
}

// Event is one record in the ring. TS is the offset from the recorder's
// epoch (virtual time for EvLinkBusy); Dur is zero for instantaneous
// events. Node is -1 for cluster-scoped events. Unused fields are zero.
type Event struct {
	Seq   uint64        `json:"seq"`
	TS    time.Duration `json:"ts"`
	Dur   time.Duration `json:"dur,omitempty"`
	Type  EventType     `json:"type"`
	Op    string        `json:"op,omitempty"`
	Phase string        `json:"phase,omitempty"`
	Node  int           `json:"node"`
	Peer  int           `json:"peer,omitempty"`
	Round int           `json:"round,omitempty"`
	Bytes int64         `json:"bytes,omitempty"`
	Tag   string        `json:"tag,omitempty"`
	Err   string        `json:"err,omitempty"`
}

// DefaultCapacity is the ring size used when New is given a
// non-positive capacity. At ~130 B/event this is ~0.5 MiB, enough to
// hold several complete rounds on an 8-node rig.
const DefaultCapacity = 4096

// DefaultPostmortemEvents bounds the event tail attached to a failed
// round's report.
const DefaultPostmortemEvents = 64

// Recorder is a fixed-capacity ring of events. All methods are safe for
// concurrent use, and all methods are safe on a nil receiver: emitters
// no-op, accessors return zero values.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	buf   []Event
	next  uint64 // seq of the next event to be written
	start uint64 // oldest seq still exposed (advanced by Drain)
}

// New returns a recorder holding the last capacity events. A
// non-positive capacity selects DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{epoch: time.Now(), buf: make([]Event, capacity)}
}

// Epoch returns the wall-clock instant event timestamps are relative
// to.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.next - r.oldestLocked())
}

// Cursor returns the sequence number the next event will receive. Pair
// with TailSince to capture "everything emitted after this point".
func (r *Recorder) Cursor() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// oldestLocked returns the seq of the oldest retained event.
func (r *Recorder) oldestLocked() uint64 {
	oldest := r.start
	if r.next > uint64(len(r.buf)) && r.next-uint64(len(r.buf)) > oldest {
		oldest = r.next - uint64(len(r.buf))
	}
	return oldest
}

// copyRangeLocked copies events [from, r.next) in seq order.
func (r *Recorder) copyRangeLocked(from uint64) []Event {
	if from >= r.next {
		return nil
	}
	out := make([]Event, 0, r.next-from)
	for seq := from; seq < r.next; seq++ {
		out = append(out, r.buf[seq%uint64(len(r.buf))])
	}
	return out
}

// TailSince returns the retained events with Seq >= since, keeping only
// the last max of them (max <= 0 means no limit). Events already
// overwritten by ring wraparound are silently absent.
func (r *Recorder) TailSince(since uint64, max int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.oldestLocked()
	if since > from {
		from = since
	}
	ev := r.copyRangeLocked(from)
	if max > 0 && len(ev) > max {
		ev = ev[len(ev)-max:]
	}
	return ev
}

// Snapshot returns a copy of all retained events in seq order without
// consuming them.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copyRangeLocked(r.oldestLocked())
}

// Drain returns all retained events and marks them consumed: a
// subsequent Snapshot or Drain only sees newer events. Sequence numbers
// keep increasing across drains, so cursors taken before a drain remain
// valid.
func (r *Recorder) Drain() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.copyRangeLocked(r.oldestLocked())
	r.start = r.next
	return ev
}

// append stamps and stores one event. e.TS must already be set for
// virtual-time events; real-time emitters pass wall instants through
// sinceEpoch before calling.
func (r *Recorder) append(e Event) {
	r.mu.Lock()
	e.Seq = r.next
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
}

// sinceEpoch converts a wall instant to a ring timestamp.
func (r *Recorder) sinceEpoch(t time.Time) time.Duration {
	return t.Sub(r.epoch)
}

// RoundBegin records the start of a save/load round.
func (r *Recorder) RoundBegin(op string, round int) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Type: EvRoundBegin, Op: op, Node: -1, Round: round})
}

// RoundEnd records round completion; err may be nil.
func (r *Recorder) RoundEnd(op string, round int, err error) {
	if r == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Type: EvRoundEnd, Op: op, Node: -1, Round: round, Err: msg})
}

// Phase records a closed per-node phase span that started at start and
// lasted dur. Node -1 denotes a cluster-wide span (commit barrier).
func (r *Recorder) Phase(op string, node, round int, phase string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(start), Dur: dur, Type: EvPhase, Op: op, Phase: phase, Node: node, Round: round})
}

// Send records a completed transport send of bytes from node to peer.
func (r *Recorder) Send(node, peer int, tag string, bytes int64, start time.Time, dur time.Duration, err error) {
	if r == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	r.append(Event{TS: r.sinceEpoch(start), Dur: dur, Type: EvSend, Node: node, Peer: peer, Tag: tag, Bytes: bytes, Err: msg})
}

// Recv records a completed transport receive of bytes on node from
// peer.
func (r *Recorder) Recv(node, peer int, tag string, bytes int64, start time.Time, dur time.Duration, err error) {
	if r == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	r.append(Event{TS: r.sinceEpoch(start), Dur: dur, Type: EvRecv, Node: node, Peer: peer, Tag: tag, Bytes: bytes, Err: msg})
}

// Chaos records a fault injection verdict ("kill", "drop", "error")
// applied to a send from node to peer carrying tag.
func (r *Recorder) Chaos(verdict string, node, peer int, tag string) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Type: EvChaos, Op: verdict, Node: node, Peer: peer, Tag: tag})
}

// Corruption records a checksum miss on node for blob key, about to be
// handled as an erasure.
func (r *Recorder) Corruption(node int, key string) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Type: EvCorruption, Node: node, Tag: key})
}

// PoolDiscard records a buffer-pool put rejected for being off-class.
func (r *Recorder) PoolDiscard(bytes int64) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Type: EvPoolDiscard, Node: -1, Bytes: bytes})
}

// LinkBusy records a busy span on the named simulated link. start and
// dur are in virtual time (offsets on the simnet timeline), recorded
// as-is.
func (r *Recorder) LinkBusy(name string, start, dur time.Duration, bytes int64) {
	if r == nil {
		return
	}
	r.append(Event{TS: start, Dur: dur, Type: EvLinkBusy, Node: -1, Tag: name, Bytes: bytes})
}

// Remote records a remote-store operation (op "put" or "get") on blob
// key.
func (r *Recorder) Remote(op, key string, bytes int64, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(start), Dur: dur, Type: EvRemote, Op: op, Node: -1, Tag: key, Bytes: bytes})
}

// Buffer records one committed buffer window of the streaming save
// pipeline on node: the span from the encode loop acquiring buffer buf's
// window credit (start) until its last owed delivery landed (start+dur).
// The buffer index rides the Peer field so the event stays allocation-free.
func (r *Recorder) Buffer(op string, node, round, buf int, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(start), Dur: dur, Type: EvBuffer, Op: op, Node: node, Peer: buf, Round: round})
}

// BudgetExceeded records a restore round (op "load", "partial-load" or
// "remote-load") whose wall time elapsed overran the configured latency
// budget. The budget rides the Bytes field as nanoseconds so the event
// stays allocation-free.
func (r *Recorder) BudgetExceeded(op string, round int, budget, elapsed time.Duration) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Dur: elapsed, Type: EvBudget, Op: op, Node: -1, Round: round, Bytes: int64(budget)})
}

// Stuck records a watchdog flag: a live round's current phase has run
// for elapsed, past threshold (the watchdog factor times the phase's
// rolling p99). The threshold rides the Bytes field as nanoseconds so
// the event stays allocation-free.
func (r *Recorder) Stuck(op string, node, round int, phase string, elapsed, threshold time.Duration) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Dur: elapsed, Type: EvStuck, Op: op, Phase: phase, Node: node, Round: round, Bytes: int64(threshold)})
}

// Membership records one membership-protocol step: op names the step
// ("drain_begin", "drain", "drain_failed", "restore"), node is the subject
// machine, peer its custodian (-1 when none) and bytes the payload moved.
func (r *Recorder) Membership(op string, node, peer int, bytes int64) {
	if r == nil {
		return
	}
	r.append(Event{TS: r.sinceEpoch(time.Now()), Type: EvMembership, Op: op, Node: node, Peer: peer, Bytes: bytes})
}
