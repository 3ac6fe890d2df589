// Package bufpool provides a size-classed []byte pool for the checkpoint
// hot path. A steady-state save round moves the same buffer population every
// interval — packets, pipeline slices, XOR accumulators, received transport
// payloads, checksum frames — so recycling them through a pool removes
// effectively all large allocations from the round. A payload sent with
// transport.SendOwned moves from sender to receiver as the same pooled buffer.
//
// Ownership rules (see DESIGN.md §"Buffer-pool ownership"):
//
//   - Get hands the caller exclusive ownership of a buffer with arbitrary
//     prior contents (clear it when zeroes matter).
//   - Put returns ownership to the pool. The caller must not touch the
//     buffer afterwards, and must Put a buffer at most once.
//   - A buffer that outlives its phase — anything reachable from a live
//     StateDict, a stored checkpoint entry, or a public API result — must
//     NOT be Put; let the garbage collector own it instead. Forgetting a
//     Put is always safe (the buffer is collected normally); a wrong Put
//     never is.
//
// Buffers are pooled per power-of-two size class. Put accepts only buffers
// whose capacity is exactly a class size, so foreign or resliced buffers are
// silently dropped rather than corrupting a class.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
)

const (
	// minClassBits is the smallest pooled class (256 B): below this the
	// allocator is cheaper than pool bookkeeping.
	minClassBits = 8
	// maxClassBits is the largest pooled class (1 GiB), covering the 64 MB
	// paper-default pipeline buffers with headroom.
	maxClassBits = 30
	numClasses   = maxClassBits - minClassBits + 1
)

// Pool is a size-classed buffer pool. The zero value is usable; construct
// shared instances with New. All methods are safe for concurrent use.
type Pool struct {
	classes [numClasses]sync.Pool

	// Counters are nil (no-op) until SetMetrics installs a registry, the
	// flight recorder for discard events until SetFlight. Both sit behind
	// atomics: an engine installs them at construction while the teardown of
	// another engine's failed round may still be returning buffers.
	counters atomic.Pointer[counters]
	rec      atomic.Pointer[flight.Recorder]
}

// counters is the pool's metric set; the methods of a nil *obs.Counter are
// no-ops, so the zero value counts nothing.
type counters struct {
	hits, misses, puts, rejects, recycled *obs.Counter
}

var noCounters counters

// count returns the installed counter set, or the no-op one.
func (p *Pool) count() *counters {
	if c := p.counters.Load(); c != nil {
		return c
	}
	return &noCounters
}

// Default is the process-wide pool shared by the checkpoint engine, the
// transports and the cluster store, so a buffer released by one layer is
// reusable by every other.
var Default = New()

// New constructs an empty pool.
func New() *Pool { return &Pool{} }

// SetMetrics installs the pool's counters into the registry:
//
//	bufpool_hits_total            Gets served from a recycled buffer
//	bufpool_misses_total          Gets that had to allocate
//	bufpool_puts_total            buffers returned to the pool
//	bufpool_put_rejects_total     Puts dropped (foreign capacity or too large)
//	bufpool_recycled_bytes_total  bytes handed out from recycled buffers
//
// A nil registry detaches the counters.
func (p *Pool) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		p.counters.Store(nil)
		return
	}
	p.counters.Store(&counters{
		hits:     reg.Counter("bufpool_hits_total"),
		misses:   reg.Counter("bufpool_misses_total"),
		puts:     reg.Counter("bufpool_puts_total"),
		rejects:  reg.Counter("bufpool_put_rejects_total"),
		recycled: reg.Counter("bufpool_recycled_bytes_total"),
	})
}

// SetFlight installs a flight recorder that receives one event per
// rejected Put — a discarded buffer is recycled memory lost, so a burst
// of discards on the timeline flags an ownership bug or a foreign
// buffer leaking into the hot path. A nil recorder disables emission.
func (p *Pool) SetFlight(rec *flight.Recorder) { p.rec.Store(rec) }

// classIndex returns the size-class index for a buffer of n bytes, or -1
// when n is outside the pooled range (0 or above the largest class).
func classIndex(n int) int {
	if n <= 0 || n > 1<<maxClassBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < minClassBits {
		b = minClassBits
	}
	return b - minClassBits
}

// classSize returns the capacity of class i.
func classSize(i int) int { return 1 << (i + minClassBits) }

// Get returns a buffer of length n with arbitrary contents. Buffers longer
// than the largest class are plain allocations (Put will drop them).
func (p *Pool) Get(n int) []byte {
	ci := classIndex(n)
	if ci < 0 {
		if n <= 0 {
			return nil
		}
		p.count().misses.Inc()
		return make([]byte, n)
	}
	size := classSize(ci)
	if ptr, ok := p.classes[ci].Get().(unsafe.Pointer); ok && ptr != nil {
		cnt := p.count()
		cnt.hits.Inc()
		cnt.recycled.Add(int64(n))
		return unsafe.Slice((*byte)(ptr), size)[:n]
	}
	p.count().misses.Inc()
	return make([]byte, size)[:n]
}

// Put returns a buffer to its size class. Only buffers whose capacity is
// exactly a class size are accepted — typically exactly the buffers Get
// handed out; anything else is dropped for the garbage collector. The caller
// must not use the buffer after Put.
func (p *Pool) Put(buf []byte) {
	c := cap(buf)
	ci := classIndex(c)
	if ci < 0 || classSize(ci) != c {
		p.count().rejects.Inc()
		p.rec.Load().PoolDiscard(int64(c))
		return
	}
	p.count().puts.Inc()
	// Store the base pointer (pointer-shaped, so boxing it into the pool's
	// interface slot does not allocate); Get reconstructs the full-class
	// slice from the class size.
	p.classes[ci].Put(unsafe.Pointer(unsafe.SliceData(buf[:c])))
}

// Get returns a buffer of length n from the Default pool.
func Get(n int) []byte { return Default.Get(n) }

// Put returns a buffer to the Default pool.
func Put(buf []byte) { Default.Put(buf) }
