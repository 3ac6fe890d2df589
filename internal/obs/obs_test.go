package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", L("node", "0"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels in any order resolves to the same counter.
	same := reg.Counter("requests_total", L("node", "0"))
	if same != c {
		t.Fatalf("lookup returned a different counter for identical identity")
	}
	multi := reg.Counter("x_total", L("a", "1"), L("b", "2"))
	if reg.Counter("x_total", L("b", "2"), L("a", "1")) != multi {
		t.Fatalf("label order changed counter identity")
	}
	if reg.Counter("requests_total", L("node", "1")) == c {
		t.Fatalf("different labels resolved to the same counter")
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("nope_total")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter has a value")
	}
	h := reg.Histogram("nope_ns")
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram recorded something")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty")
	}
}

func TestHistogramAggregates(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ns")
	for _, v := range []int64{10, 20, 30, 40} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 100 {
		t.Fatalf("count/sum = %d/%d, want 4/100", h.Count(), h.Sum())
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Fatalf("min/max = %d/%d, want 10/40", h.Min(), h.Max())
	}
}

// quantileRef is the exact nearest-rank quantile of a sorted sample.
func quantileRef(sorted []int64, q float64) int64 {
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileAccuracy checks the log-bucket quantile estimate
// against a reference sort on uniform and heavy-tailed samples. The bucket
// width is 1/4 octave, so the representative midpoint is within 12.5% of
// any value in the bucket; we assert 15% to leave room for rank effects.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	samples := map[string][]int64{}
	uniform := make([]int64, 10000)
	for i := range uniform {
		uniform[i] = 1 + rng.Int63n(1_000_000)
	}
	samples["uniform"] = uniform
	expo := make([]int64, 10000)
	for i := range expo {
		expo[i] = 1 + int64(rng.ExpFloat64()*50_000)
	}
	samples["exponential"] = expo

	for name, sample := range samples {
		h := newHistogram()
		for _, v := range sample {
			h.Observe(v)
		}
		sorted := append([]int64(nil), sample...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.95, 0.99} {
			got := h.Quantile(q)
			want := quantileRef(sorted, q)
			relErr := float64(got-want) / float64(want)
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > 0.15 {
				t.Errorf("%s p%g: estimate %d vs reference %d (rel err %.1f%%)",
					name, q*100, got, want, relErr*100)
			}
		}
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every representative value must land back in its own bucket, and
	// bucket indices must be monotone in the value.
	last := -1
	for v := int64(1); v < 1<<40; v = v*3/2 + 1 {
		idx := bucketIndex(v)
		if idx < last {
			t.Fatalf("bucket index not monotone at %d", v)
		}
		last = idx
		if got := bucketIndex(bucketMid(idx)); got != idx {
			t.Fatalf("representative of bucket %d (value %d) lands in bucket %d", idx, bucketMid(idx), got)
		}
	}
	if bucketIndex(0) != 0 || bucketIndex(-5) != 0 {
		t.Fatalf("non-positive values must use the underflow bucket")
	}
}

// TestConcurrentRecorders hammers one counter and one histogram from many
// goroutines; run under -race this is the data-race certification for the
// hot path, and the totals check that no increment is lost.
func TestConcurrentRecorders(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("hits_total")
			h := reg.Histogram("work_ns", L("worker", "shared"))
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(g*perG + i + 1))
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("hits_total").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	h := reg.Histogram("work_ns", L("worker", "shared"))
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if h.Min() != 1 || h.Max() != goroutines*perG {
		t.Fatalf("min/max = %d/%d, want 1/%d", h.Min(), h.Max(), goroutines*perG)
	}
}

func TestSnapshotLookup(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", L("k", "v")).Add(7)
	reg.Histogram("b_ns").Observe(128)
	snap := reg.Snapshot()
	if v, ok := snap.Counter("a_total", L("k", "v")); !ok || v != 7 {
		t.Fatalf("counter lookup = %d/%v, want 7/true", v, ok)
	}
	if _, ok := snap.Counter("a_total"); ok {
		t.Fatalf("lookup without labels matched a labeled counter")
	}
	hp, ok := snap.Histogram("b_ns")
	if !ok || hp.Count != 1 || hp.Sum != 128 {
		t.Fatalf("histogram lookup = %+v/%v", hp, ok)
	}
}
