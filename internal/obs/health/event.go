package health

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds.
const (
	// KindRound marks a round-lifecycle transition (State "start"/"end").
	KindRound = "round"
	// KindHealth marks a protection-level transition.
	KindHealth = "health"
	// KindStuck marks a watchdog flag on a live round.
	KindStuck = "stuck"
)

// Event is one record on a job's protection timeline: a round-lifecycle
// marker, a health-level transition, or a stuck-round watchdog flag.
// Fields outside the common set are meaningful per kind: Level/PrevLevel/
// Margin/Reasons on health events, Phase/Elapsed/Threshold/Node on stuck
// events, State/Err on round events.
type Event struct {
	// Seq orders events within one tracker; the daemon's stream preserves
	// it per job.
	Seq uint64 `json:"seq"`
	// Time is the emission instant.
	Time time.Time `json:"time"`
	// Kind discriminates the record (KindRound, KindHealth, KindStuck).
	Kind string `json:"kind"`
	// Job names the owning job; stamped by the daemon, empty for a
	// single-system tracker.
	Job string `json:"job,omitempty"`
	// Op names the round operation ("save", "load", ...).
	Op string `json:"op,omitempty"`
	// State is "start" or "end" on round events.
	State string `json:"state,omitempty"`
	// Version is the checkpoint version the round concerns.
	Version int `json:"version,omitempty"`
	// Err carries a failed round's error.
	Err string `json:"err,omitempty"`
	// Level and PrevLevel frame a health transition (health events only;
	// round and stuck events leave both at their zero value, "ok").
	Level     Level `json:"level"`
	PrevLevel Level `json:"prev_level"`
	// Margin is the redundancy margin after a health transition.
	Margin int `json:"margin"`
	// Reasons explains a health transition.
	Reasons []string `json:"reasons,omitempty"`
	// Node is the flagged node on stuck events (-1 for cluster scope).
	Node int `json:"node,omitempty"`
	// Phase is the stuck phase.
	Phase string `json:"phase,omitempty"`
	// Elapsed is how long the flagged phase had been running; Threshold
	// the tripped limit (the watchdog factor times the phase's rolling
	// p99, floored).
	Elapsed   time.Duration `json:"elapsed_ns,omitempty"`
	Threshold time.Duration `json:"threshold_ns,omitempty"`
}

// WriteSSE frames one event for a Server-Sent-Events stream: the SSE
// event name is the kind, the data line the JSON encoding.
func WriteSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
	return err
}

// Bus fans events out to subscribers with bounded buffers: a slow
// consumer drops events (counted per subscriber and via the OnDrop hook)
// instead of blocking the engine. Publish is non-blocking.
type Bus struct {
	mu     sync.Mutex
	subs   map[*Sub]struct{}
	onDrop func()
	closed bool
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[*Sub]struct{})}
}

// OnDrop installs a hook called once per dropped event (a metrics
// counter in the daemon). The hook runs on the publishing goroutine.
func (b *Bus) OnDrop(fn func()) {
	b.mu.Lock()
	b.onDrop = fn
	b.mu.Unlock()
}

// Subscribers reports how many subscriptions are currently open —
// useful for tests that must know a stream is attached before they
// trigger the events it should see.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe registers a consumer. job filters the stream to one job's
// events ("" passes everything); buf bounds the subscriber's channel
// (non-positive selects 256). Close the Sub when done.
func (b *Bus) Subscribe(job string, buf int) *Sub {
	if buf <= 0 {
		buf = 256
	}
	s := &Sub{bus: b, job: job, ch: make(chan Event, buf)}
	b.mu.Lock()
	if b.closed {
		close(s.ch)
		s.closed = true
	} else {
		b.subs[s] = struct{}{}
	}
	b.mu.Unlock()
	return s
}

// Publish delivers ev to every matching subscriber without blocking:
// subscribers whose buffer is full lose the event (their drop counter
// and the bus OnDrop hook record it).
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for s := range b.subs {
		if s.job != "" && s.job != ev.Job {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			if b.onDrop != nil {
				b.onDrop()
			}
		}
	}
}

// Close shuts the bus down: every subscriber's channel is closed (after
// its buffered events drain) and later Publish calls are dropped.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		if !s.closed {
			close(s.ch)
			s.closed = true
		}
		delete(b.subs, s)
	}
}

// Sub is one bus subscription.
type Sub struct {
	bus    *Bus
	job    string
	ch     chan Event
	closed bool // guarded by bus.mu
}

// Events returns the subscription's channel. It is closed by Sub.Close
// or Bus.Close; buffered events already delivered remain readable.
func (s *Sub) Events() <-chan Event { return s.ch }

// Close unregisters the subscription and closes its channel.
func (s *Sub) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	delete(s.bus.subs, s)
	close(s.ch)
	s.closed = true
}
