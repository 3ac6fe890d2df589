// Package simnet provides the virtual-time resource model used to replay
// checkpointing plans at paper scale: bandwidth-costed resources (PCIe
// links, NICs, CPU encode pools, the remote-storage uplink) that serialize
// jobs FIFO, and busy/idle timelines that model training traffic so
// checkpoint communication can be scheduled into idle slots.
//
// There are no wall-clock sleeps anywhere: time is data. A job's completion
// instant is computed from its ready time, the resource's queue, and the
// resource's rate, which makes figure-scale simulations fast and exactly
// reproducible.
package simnet

import (
	"fmt"
	"sort"
	"time"
)

// Span is a half-open interval of virtual time.
type Span struct {
	Start time.Duration
	End   time.Duration
}

// Len returns the span length.
func (s Span) Len() time.Duration { return s.End - s.Start }

// DurationForBytes converts a byte count at a rate (bytes/second) to a
// duration.
func DurationForBytes(bytes int64, rate float64) (time.Duration, error) {
	if rate <= 0 {
		return 0, fmt.Errorf("simnet: non-positive rate %f", rate)
	}
	if bytes < 0 {
		return 0, fmt.Errorf("simnet: negative byte count %d", bytes)
	}
	seconds := float64(bytes) / rate
	return time.Duration(seconds * float64(time.Second)), nil
}

// Resource is a serial FIFO server with a fixed service rate in
// bytes/second: a PCIe lane, a NIC direction, a CPU encoding pool, or a
// storage uplink. The zero value is unusable; construct with NewResource.
type Resource struct {
	name     string
	rate     float64
	nextFree time.Duration
}

// NewResource constructs a resource with the given service rate.
func NewResource(name string, rate float64) (*Resource, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("simnet: resource %q needs positive rate, got %f", name, rate)
	}
	return &Resource{name: name, rate: rate}, nil
}

// Exec enqueues a job of the given size that becomes ready at the given
// instant, and returns its start and completion instants. Jobs are served
// FIFO in call order.
func (r *Resource) Exec(ready time.Duration, bytes int64) (Span, error) {
	d, err := DurationForBytes(bytes, r.rate)
	if err != nil {
		return Span{}, fmt.Errorf("simnet: resource %q: %w", r.name, err)
	}
	start := ready
	if r.nextFree > start {
		start = r.nextFree
	}
	end := start + d
	r.nextFree = end
	return Span{Start: start, End: end}, nil
}

// Timeline is a set of busy spans (typically profiled training traffic on a
// link) supporting idle-window queries. Spans are kept sorted and merged.
type Timeline struct {
	busy []Span
}

// AddBusy marks [start, end) as busy, merging with existing spans.
func (t *Timeline) AddBusy(start, end time.Duration) error {
	if end < start {
		return fmt.Errorf("simnet: invalid busy span [%v, %v)", start, end)
	}
	if end == start {
		return nil
	}
	t.busy = append(t.busy, Span{Start: start, End: end})
	sort.Slice(t.busy, func(i, j int) bool { return t.busy[i].Start < t.busy[j].Start })
	merged := t.busy[:0]
	for _, s := range t.busy {
		if n := len(merged); n > 0 && s.Start <= merged[n-1].End {
			if s.End > merged[n-1].End {
				merged[n-1].End = s.End
			}
			continue
		}
		merged = append(merged, s)
	}
	t.busy = merged
	return nil
}

// Busy returns the merged busy spans.
func (t *Timeline) Busy() []Span { return append([]Span(nil), t.busy...) }

// BusyAt reports whether instant x falls inside a busy span.
func (t *Timeline) BusyAt(x time.Duration) bool {
	i := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].End > x })
	return i < len(t.busy) && t.busy[i].Start <= x
}

// NextIdle returns the earliest instant >= from that is idle.
func (t *Timeline) NextIdle(from time.Duration) time.Duration {
	for _, s := range t.busy {
		if s.End <= from {
			continue
		}
		if s.Start > from {
			return from
		}
		from = s.End
	}
	return from
}

// IdleWindows returns the idle gaps within [from, to), the slots ECCheck's
// profiler extracts from the first training iterations.
func (t *Timeline) IdleWindows(from, to time.Duration) []Span {
	var out []Span
	cur := from
	for _, s := range t.busy {
		if s.End <= cur {
			continue
		}
		if s.Start >= to {
			break
		}
		if s.Start > cur {
			hi := s.Start
			if hi > to {
				hi = to
			}
			out = append(out, Span{Start: cur, End: hi})
		}
		if s.End > cur {
			cur = s.End
		}
		if cur >= to {
			return out
		}
	}
	if cur < to {
		out = append(out, Span{Start: cur, End: to})
	}
	return out
}

// TransferIdle computes when a transfer of the given size finishes if it
// may only use idle time (pausing during busy spans), starting no earlier
// than ready. This models idle-slot-scheduled checkpoint communication.
func (t *Timeline) TransferIdle(ready time.Duration, bytes int64, rate float64) (time.Duration, error) {
	need, err := DurationForBytes(bytes, rate)
	if err != nil {
		return 0, err
	}
	cur := t.NextIdle(ready)
	for _, s := range t.busy {
		if s.End <= cur {
			continue
		}
		// Idle gap is [cur, s.Start).
		gap := s.Start - cur
		if gap >= need {
			return cur + need, nil
		}
		need -= gap
		cur = s.End
	}
	return cur + need, nil
}

// TransferContended computes when a transfer finishes if it shares the link
// with training traffic rather than avoiding it: during busy spans the
// transfer proceeds at half rate (fair sharing with the training flow).
// This models the unscheduled baseline the communication-scheduling
// ablation compares against.
func (t *Timeline) TransferContended(ready time.Duration, bytes int64, rate float64) (time.Duration, error) {
	if rate <= 0 {
		return 0, fmt.Errorf("simnet: non-positive rate %f", rate)
	}
	if bytes < 0 {
		return 0, fmt.Errorf("simnet: negative byte count %d", bytes)
	}
	remaining := float64(bytes)
	cur := ready
	idx := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].End > cur })
	for remaining > 0 {
		var segEnd time.Duration
		var effRate float64
		if idx < len(t.busy) && t.busy[idx].Start <= cur {
			// Inside a busy span: half rate until it ends.
			segEnd = t.busy[idx].End
			effRate = rate / 2
		} else if idx < len(t.busy) {
			// Idle until the next busy span starts.
			segEnd = t.busy[idx].Start
			effRate = rate
		} else {
			// Idle forever: finish directly.
			return cur + time.Duration(remaining/rate*float64(time.Second)), nil
		}
		segSeconds := (segEnd - cur).Seconds()
		capacity := effRate * segSeconds
		if capacity >= remaining {
			return cur + time.Duration(remaining/effRate*float64(time.Second)), nil
		}
		remaining -= capacity
		cur = segEnd
		if idx < len(t.busy) && t.busy[idx].End <= cur {
			idx++
		}
	}
	return cur, nil
}

// InterferenceDuring returns how much busy (training) time overlaps
// [from, to): with contended transfers this is training time that runs at
// reduced speed, i.e. the slowdown the scheduler exists to avoid.
func (t *Timeline) InterferenceDuring(from, to time.Duration) time.Duration {
	var total time.Duration
	for _, s := range t.busy {
		lo := s.Start
		if from > lo {
			lo = from
		}
		hi := s.End
		if to < hi {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
