package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tailLadder is the set of percentiles a timing may be reported at, in
// ascending order. The benchmark prints the highest one that still has at
// least minBeyond samples above it, so a tail is never read off a handful
// of points.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it; ok is false when even the lowest rung
// has too few.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// sorted samples. The epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// summary is how one metric is printed and stored: the gated value (a
// median for timings), its sample count, and the tail percentile chosen by
// tailPercentile (TailP is 0 when there were too few samples for one).
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Raw is the wall-clock median of a timing whose Value, tail, Min and
	// Max are at reference machine speed (speed.go).
	Raw   float64 `json:"raw,omitempty"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// summarize reduces timing samples to their summary.
func summarize(xs []float64, unit string) summary {
	s := summary{Unit: unit, N: len(xs), Value: median(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	if p, ok := tailPercentile(len(sorted)); ok {
		s.TailP, s.Tail = p, percentile(sorted, p)
	}
	return s
}

// single wraps a one-off measurement (a ratio, a peak) as a summary.
func single(v float64, unit string) summary {
	return summary{Value: v, Unit: unit, N: 1, Min: v, Max: v}
}

// recorder collects named samples from the workload loops. The daemon
// workload records from two client goroutines, hence the lock.
type recorder struct {
	mu     sync.Mutex
	series map[string][]float64
	// at holds, for a series filled by addAt, when each sample was taken
	// (seconds since epoch); speed the reference-kernel readings.
	epoch     time.Time
	at        map[string][]float64
	speed     []speedReading
	attempted int
	failed    int
	errs      []string
}

func newRecorder() *recorder {
	return &recorder{series: make(map[string][]float64), at: make(map[string][]float64), epoch: time.Now()}
}

// addAt appends one timing of the interval [start, end], remembering when
// it was taken so that normalized can find the machine's speed then.
func (r *recorder) addAt(name string, v float64, start, end time.Time) {
	mid := start.Add(end.Sub(start) / 2).Sub(r.epoch).Seconds()
	r.mu.Lock()
	r.series[name] = append(r.series[name], v)
	r.at[name] = append(r.at[name], mid)
	r.mu.Unlock()
}

// probe takes one reading of the reference kernel.
func (r *recorder) probe(p *speedProbe) {
	ns := float64(p.read().Nanoseconds())
	at := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	r.speed = append(r.speed, speedReading{at, ns})
	r.mu.Unlock()
}

// normalized returns a series filled by addAt with every sample scaled to
// reference machine speed (the raw series when no reading was taken).
func (r *recorder) normalized(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	readings := append([]speedReading(nil), r.speed...)
	sort.Slice(readings, func(i, j int) bool { return readings[i].at < readings[j].at })
	out := append([]float64(nil), r.series[name]...)
	for i, at := range r.at[name] {
		out[i] *= speedScale(readings, at)
	}
	return out
}

// timing summarizes a series filled by addAt at reference machine speed,
// keeping its wall-clock median beside it.
func (r *recorder) timing(name, unit string) summary {
	s := summarize(r.normalized(name), unit)
	s.Raw = median(r.get(name))
	return s
}

// add appends one sample to a series without counting an operation.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.series[name] = append(r.series[name], v)
	r.mu.Unlock()
}

// op counts one attempted operation; a non-nil err makes it a failed one.
func (r *recorder) op(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
	r.mu.Unlock()
}

func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.series[name]...)
}

// mean returns the arithmetic mean of a series, 0 when it is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
