// Package obs is the dependency-free observability layer of the system:
// monotonic counters and streaming log-bucketed histograms, collected in a
// Registry and rendered as Prometheus-style exposition text or a
// machine-readable JSON snapshot.
//
// Design constraints, in order:
//
//   - Nil-safety. Every recording method is a no-op on a nil receiver, and
//     a nil *Registry hands out nil instruments, so instrumented code never
//     branches on "is observability enabled" — it just records.
//   - No allocations on the hot path. Counter.Add and Histogram.Observe
//     touch only pre-allocated atomics; instrument lookup (which does
//     allocate a canonical key) is meant to be done once and cached.
//   - Safe under the race detector. All mutable state is sync/atomic or
//     mutex-guarded; concurrent recorders never observe torn values.
//
// Histograms use fixed log-bucketing: 4 sub-buckets per power of two, so a
// recorded value lands in a bucket whose width is 1/4 of its octave and a
// quantile estimate is within ~12.5% relative error of the true value.
// Durations are recorded in nanoseconds by convention (metric names carry a
// _ns suffix); counters carry a _total suffix.
package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label attaches one key="value" dimension to a metric, Prometheus-style.
type Label struct {
	// Key is the label name (e.g. "phase", "node", "peer").
	Key string `json:"key"`
	// Value is the label value.
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// canonicalLabels returns the labels sorted by key (value as tiebreak), so
// a metric's identity does not depend on the order call sites pass labels.
func canonicalLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// metricID is the canonical registry key: name{k1="v1",k2="v2"}.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus exposition
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Registry is a concurrency-safe collection of named instruments. The zero
// value is not usable; construct with NewRegistry. A nil *Registry is a
// valid "observability off" registry: it hands out nil instruments whose
// recording methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterEntry
	hists    map[string]*histEntry
}

type counterEntry struct {
	name   string
	labels []Label
	c      *Counter
}

type histEntry struct {
	name   string
	labels []Label
	h      *Histogram
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*counterEntry),
		hists:    make(map[string]*histEntry),
	}
}

// Counter returns (creating on first use) the counter with the given name
// and label set. Label order does not matter. Returns nil on a nil
// registry; call sites should cache the result rather than re-resolve per
// event.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = canonicalLabels(labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[id]
	if !ok {
		e = &counterEntry{name: name, labels: labels, c: &Counter{}}
		r.counters[id] = e
	}
	return e.c
}

// Histogram returns (creating on first use) the histogram with the given
// name and label set. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	labels = canonicalLabels(labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hists[id]
	if !ok {
		e = &histEntry{name: name, labels: labels, h: newHistogram()}
		r.hists[id] = e
	}
	return e.h
}

// Counter is a monotonic int64 counter. All methods are safe for concurrent
// use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram bucket layout: one underflow bucket for values <= 0, then 4
// sub-buckets per octave (power of two). int64 values occupy octaves
// 0..62, so 1 + 63*4 buckets always suffice.
const (
	histSubBuckets = 4
	histBuckets    = 1 + 63*histSubBuckets
)

// Histogram is a streaming log-bucketed histogram of int64 observations:
// count, sum, min, max, and quantile estimates with ~12.5% worst-case
// relative error. Observations allocate nothing; all state is atomic, so
// concurrent recorders are safe under the race detector. Record durations
// as nanoseconds (ObserveDuration).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(1)<<62 + (int64(1)<<62 - 1)) // MaxInt64 without math import
	h.max.Store(-(int64(1)<<62 + (int64(1)<<62 - 1)))
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	o := bits.Len64(uint64(v)) - 1 // octave: v in [2^o, 2^(o+1))
	sub := 0
	if o >= 2 {
		sub = int((uint64(v) >> uint(o-2)) & 3) // top two bits below the MSB
	}
	return 1 + o*histSubBuckets + sub
}

// bucketMid returns the representative value (midpoint) of a bucket.
func bucketMid(idx int) int64 {
	if idx <= 0 {
		return 0
	}
	o := (idx - 1) / histSubBuckets
	sub := (idx - 1) % histSubBuckets
	if o < 2 {
		// Octaves 0 and 1 collapse their sub-buckets: [1,2) and [2,4).
		lo := int64(1) << uint(o)
		return lo + lo/2
	}
	width := int64(1) << uint(o-2)
	lo := int64(1)<<uint(o) + int64(sub)*width
	return lo + width/2
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation (0 before the first).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 before the first).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts:
// the representative value of the bucket holding the ceil(q*count)-th
// observation, clamped to the observed [min, max]. Returns 0 before the
// first observation.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	est := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			est = bucketMid(i)
			break
		}
	}
	if min := h.Min(); est < min {
		est = min
	}
	if max := h.Max(); est > max {
		est = max
	}
	return est
}
