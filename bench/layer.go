package main

import (
	"fmt"
	"time"
)

// layerMetric declares one per-layer metric: its unit, which direction is
// better, and — written down before anything is measured — which
// end-to-end metric on which workload it should move, and where it should
// not. BENCHMARK.json lists the same names; bench_test.go keeps the two in
// step.
type layerMetric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	moves  string
}

// layer is the benchmark's view of one module of the repository: the
// metrics it reports and the probe that measures them in a traced run.
// Each module has its own layer_<module>.go that registers itself, so
// deleting a module deletes exactly one benchmark file.
type layer struct {
	module  string
	metrics []layerMetric
	probe   func(c *probeCtx) error
	// derive, when set, runs after every layer's probe, for a metric that
	// is a ratio of two layers' results.
	derive func(c *probeCtx)
}

var layers []layer

func registerLayer(l layer) { layers = append(layers, l) }

// probeCtx is what a layer probe gets: the time it may spend per timed
// loop, the series the traced workload run recorded (for metrics that are
// read off the workload's own reports and counters rather than probed),
// and somewhere to put results.
type probeCtx struct {
	// budget bounds each timeLoop; smoke cuts every loop to one iteration.
	budget time.Duration
	smoke  bool
	// workload names the traced workload; traced holds its series and
	// untraced the series of the same workload run without spans in the
	// same process.
	workload string
	traced   *recorder
	untraced *recorder
	seed     uint64
	out      map[string]float64
}

func (c *probeCtx) emit(name string, v float64) { c.out[name] = v }

// emitMedian reports the median of a traced-workload series (0 when the
// workload recorded none, e.g. transport counters behind the daemon).
func (c *probeCtx) emitMedian(name string) { c.emit(name, median(c.traced.get(name))) }

// timeLoop calls fn repeatedly for the probe budget (at least three
// times; once under -smoke) and returns the median seconds per call.
func (c *probeCtx) timeLoop(fn func() error) (float64, error) {
	var samples []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
		if c.smoke || (len(samples) >= 3 && time.Since(start) >= c.budget) {
			break
		}
	}
	return median(samples), nil
}

// gbps times fn, which processes bytes per call, and returns GB/s.
func (c *probeCtx) gbps(bytes int, fn func() error) (float64, error) {
	sec, err := c.timeLoop(fn)
	if err != nil || sec <= 0 {
		return 0, err
	}
	return float64(bytes) / sec / 1e9, nil
}

// runProbes runs every layer's probe under a span named for the layer and
// returns the merged metric values.
func runProbes(c *probeCtx, tr *tracer) (map[string]float64, error) {
	c.out = make(map[string]float64)
	for _, l := range layers {
		id := tr.begin(l.module, 0, 0)
		err := l.probe(c)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", l.module, err)
		}
	}
	for _, l := range layers {
		if l.derive != nil {
			l.derive(c)
		}
		for _, m := range l.metrics {
			if _, ok := c.out[m.name]; !ok {
				return nil, fmt.Errorf("layer %s: probe did not report %s", l.module, m.name)
			}
		}
	}
	return c.out, nil
}

// The benchmark's own layer: what recording spans and reading allocation
// counters around every operation costs the traced workload.
func init() {
	registerLayer(layer{
		module: "bench",
		metrics: []layerMetric{
			{"trace_overhead_ratio", "ratio", "lower", "nothing: traced / untraced save_round_ms of the same process; end-to-end metrics always come from the untraced run"},
		},
		probe: func(c *probeCtx) error {
			ratio := 0.0
			if un := median(c.untraced.get(mRound)); un > 0 {
				ratio = median(c.traced.get(mRound)) / un
			}
			c.emit("trace_overhead_ratio", ratio)
			return nil
		},
	})
}

// fillPattern writes a cheap, seed-dependent, non-constant pattern.
func fillPattern(buf []byte, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// makeChunks allocates n patterned buffers of size bytes.
func makeChunks(n, size int, seed uint64) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		fillPattern(out[i], seed+uint64(i))
	}
	return out
}
