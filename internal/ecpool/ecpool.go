// Package ecpool provides a CPU worker pool that parallelises erasure
// encoding by splitting one region-encoding task into sub-ranges executed
// concurrently, mirroring ECCheck's thread-pool acceleration of Cauchy
// Reed-Solomon encoding on host CPUs.
package ecpool

import (
	"fmt"
	"runtime"
	"sync"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/erasure"
	"eccheck/internal/gf"
)

// task is one unit of pool work: run fn and report its error.
type task struct {
	fn   func() error
	errc chan<- error
}

// Pool is a fixed-size worker pool. The zero value is not usable; construct
// with NewPool. Close must be called to release the workers.
type Pool struct {
	workers int
	tasks   chan task

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewPool starts a pool with the given number of workers. A non-positive
// count defaults to GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan task),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the number of pool workers.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the pool down and waits for all workers to exit. It is safe
// to call multiple times. Submitting work after Close panics (as sending on
// a closed channel), so callers own the ordering.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.tasks)
	})
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.errc <- t.fn()
	}
}

// run executes fns on the pool and returns the first error encountered.
func (p *Pool) run(fns []func() error) error {
	errc := make(chan error, len(fns))
	for _, fn := range fns {
		p.tasks <- task{fn: fn, errc: errc}
	}
	var firstErr error
	for range fns {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// splitRange divides [0, total) into at most parts contiguous sub-ranges of
// equal length (except possibly the last).
func splitRange(total, parts int) [][2]int {
	if total <= 0 {
		return nil
	}
	if parts <= 1 {
		return [][2]int{{0, total}}
	}
	chunk := (total + parts - 1) / parts
	var out [][2]int
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// Encode runs code.Encode split across the pool's workers: the packet byte
// range of every chunk is partitioned and each partition is encoded
// concurrently. Results are byte-identical to a serial Encode.
func (p *Pool) Encode(code *erasure.Code, data, parity [][]byte) error {
	if len(data) == 0 {
		return fmt.Errorf("ecpool: no data chunks")
	}
	psize := len(data[0]) / int(code.WordSize())
	ranges := splitRange(psize, p.workers)
	if len(ranges) == 0 {
		return fmt.Errorf("ecpool: empty chunks")
	}
	fns := make([]func() error, len(ranges))
	for i, rg := range ranges {
		lo, hi := rg[0], rg[1]
		fns[i] = func() error { return code.EncodeRange(data, parity, lo, hi) }
	}
	return p.run(fns)
}

// RunSchedule executes an arbitrary XOR schedule (for example a recovery
// transform) split across the pool's workers.
func (p *Pool) RunSchedule(sched *bitmatrix.Schedule, data, out [][]byte) error {
	if len(data) == 0 {
		return fmt.Errorf("ecpool: no data chunks")
	}
	psize := len(data[0]) / sched.W
	ranges := splitRange(psize, p.workers)
	if len(ranges) == 0 {
		return fmt.Errorf("ecpool: empty chunks")
	}
	fns := make([]func() error, len(ranges))
	for i, rg := range ranges {
		lo, hi := rg[0], rg[1]
		fns[i] = func() error { return sched.ExecuteRange(data, out, lo, hi) }
	}
	return p.run(fns)
}

// XORReduce folds every source into dst (dst ^= srcs[0] ^ srcs[1] ^ ...)
// split across the pool by byte range: each worker owns a contiguous slice
// of dst and streams all sources through it, so the reduction of a whole
// group costs one pool dispatch instead of one per contribution. Used for
// the receiver-side XOR-reduction step of the checkpointing protocol.
func (p *Pool) XORReduce(dst []byte, srcs [][]byte) error {
	for i, src := range srcs {
		if len(src) != len(dst) {
			return fmt.Errorf("ecpool: xor-reduce length mismatch: dst=%d srcs[%d]=%d", len(dst), i, len(src))
		}
	}
	if len(srcs) == 0 {
		return nil
	}
	ranges := splitRange(len(dst), p.workers)
	if len(ranges) == 0 {
		return nil
	}
	fns := make([]func() error, len(ranges))
	for i, rg := range ranges {
		lo, hi := rg[0], rg[1]
		fns[i] = func() error {
			d := dst[lo:hi]
			for _, src := range srcs {
				if err := gf.XORSlice(d, src[lo:hi]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return p.run(fns)
}

// XOR computes dst ^= src split across the pool, used to parallelise the
// XOR-reduction step of the checkpointing protocol.
func (p *Pool) XOR(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("ecpool: xor length mismatch: dst=%d src=%d", len(dst), len(src))
	}
	ranges := splitRange(len(dst), p.workers)
	if len(ranges) == 0 {
		return nil
	}
	fns := make([]func() error, len(ranges))
	for i, rg := range ranges {
		lo, hi := rg[0], rg[1]
		fns[i] = func() error { return gf.XORSlice(dst[lo:hi], src[lo:hi]) }
	}
	return p.run(fns)
}
