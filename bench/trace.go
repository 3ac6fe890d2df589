package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around each call into a layer: nothing inside the library is
// instrumented. All spans of one workload cycle share an Op id; Parent is
// the id of the span that caused this one (0 for a root).
type span struct {
	Name    string         `json:"name"`
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Op      int            `json:"op"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allocates the id shared by the spans of one cycle.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span now and returns its id (0 on the untraced run).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.record(name, parent, op, time.Now(), time.Time{}, nil)
}

// end closes a span opened by begin and attaches its attributes.
func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNs = now
	s.Attrs = attrs
	t.mu.Unlock()
}

// record adds a span whose bounds were measured by the caller (the two
// halves of an asynchronous save, for example). A zero end leaves it open.
func (t *tracer) record(name string, parent, op int, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	s := span{Name: name, Parent: parent, Op: op, StartNs: start.Sub(t.epoch).Nanoseconds(), Attrs: attrs}
	if !end.IsZero() {
		s.EndNs = end.Sub(t.epoch).Nanoseconds()
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		cursor := s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// spanTotals is the per-name aggregate written beside the raw spans.
type spanTotals struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// totalsByName folds spans into one row per span name, busiest first.
func totalsByName(spans []span) []spanTotals {
	self := selfTimes(spans)
	byName := make(map[string]*spanTotals)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &spanTotals{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalNs += s.EndNs - s.StartNs
		row.SelfNs += self[s.ID]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, row := range byName {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}
