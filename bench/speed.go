package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Machine-speed normalisation.
//
// The benchmark runs on a few vCPUs of a shared host, and what the host
// gives them changes by 20-40 % for minutes at a time with nothing in the
// guest to show for it (no steal time): a dependent-ALU chain keeps its
// speed while any loop that is bound by load/store throughput slows, most
// of all when both vCPUs work at once, which is how sibling hardware
// threads behave when a neighbour (or the guest's own other vCPU) shares
// the core. Whole 20 s runs shift together, so no statistic of one run's
// wall-clock samples is steady (baseline/noise.txt has the study).
//
// So the benchmark times a reference kernel of its own between cycles and
// reports every timing as what it would have read on a machine whose
// reference kernel takes refProbeNs: sample × refProbeNs ÷ (the reference
// kernel's time around that sample). The kernel is written here, not taken
// from the repository, so that no change to the library can move it.

const (
	// probeWords is the length of each of a worker's two buffers: 128 KiB
	// each, a 256 KiB working set that stays in the core's own cache, so
	// the reading follows the core and not DRAM traffic.
	probeWords = 16 << 10
	// probePasses XOR passes over the pair make one reading (≈0.2 ms).
	probePasses = 8
	// refProbeNs is the reference machine: a reading on the 2-vCPU VM the
	// benchmark was written on, in a quiet period.
	refProbeNs = 200e3
	// speedWindow readings on each side of a sample set its local speed
	// (their median): a single reading can catch an interrupt.
	speedWindow = 2
)

// speedProbe is the reference kernel: GOMAXPROCS workers, each XOR-ing one
// private buffer into another, all at once, because the workloads keep
// every vCPU busy and what slows them is what the vCPUs deliver together.
type speedProbe struct {
	workers [][2][]uint64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{workers: make([][2][]uint64, runtime.GOMAXPROCS(0))}
	for w := range p.workers {
		a, b := make([]uint64, probeWords), make([]uint64, probeWords)
		for i := range a {
			a[i], b[i] = uint64(i), uint64(i*7)
		}
		p.workers[w] = [2][]uint64{a, b}
	}
	return p
}

func xorPasses(pair [2][]uint64) {
	for r := 0; r < probePasses; r++ {
		a, b := pair[0], pair[1][:len(pair[0])]
		for i := range a {
			a[i] ^= b[i]
		}
	}
}

// read times one run of the kernel on every worker at once.
func (p *speedProbe) read() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, pair := range p.workers[1:] {
		wg.Add(1)
		go func() {
			xorPasses(pair)
			wg.Done()
		}()
	}
	xorPasses(p.workers[0])
	wg.Wait()
	return time.Since(start)
}

// speedReading is one reading of the reference kernel: when (seconds since
// the recorder's epoch) and how long it took.
type speedReading struct {
	at, ns float64
}

// speedScale is what a sample taken at time at is multiplied by: refProbeNs
// over the median of the readings around it, speedWindow on each side.
// readings are sorted by time. Without readings the scale is 1.
func speedScale(readings []speedReading, at float64) float64 {
	if len(readings) == 0 {
		return 1
	}
	i := sort.Search(len(readings), func(i int) bool { return readings[i].at > at })
	lo, hi := max(0, i-speedWindow), min(len(readings), i+speedWindow)
	near := make([]float64, 0, 2*speedWindow)
	for _, r := range readings[lo:hi] {
		near = append(near, r.ns)
	}
	return refProbeNs / median(near)
}
