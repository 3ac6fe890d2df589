// Package remotestore models the remote persistent storage tier of the
// evaluation: a durable object store reached over a bandwidth-limited
// aggregate uplink (5 Gbps in the paper's testbed). Objects survive node
// failures — this is where baselines 1/2 put every checkpoint and where
// ECCheck persists at low frequency against catastrophic failures.
//
// Transfers are functionally instant (bytes are stored synchronously) but
// each operation returns the modeled transfer duration on the shared
// uplink, which the timing layer uses; the uplink serializes transfers
// FIFO like a real saturated WAN link.
package remotestore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/simnet"
	"eccheck/internal/transport"
)

// Store is a durable object store behind a shared uplink.
type Store struct {
	mu      sync.Mutex
	objects map[string][]byte
	uplink  *simnet.Resource
	// stall makes every operation block for the given real-time duration
	// before touching the store — the fault-injection hook for a hung or
	// degraded remote tier. Operations still honor context cancellation
	// and the transport.WithOpTimeout bound while stalled.
	stall time.Duration

	// Operation counters and modeled-transfer histogram; nil (no-op)
	// until SetMetrics installs a registry.
	mPuts       *obs.Counter
	mGets       *obs.Counter
	mPutBytes   *obs.Counter
	mGetBytes   *obs.Counter
	mTransferNs *obs.Histogram

	// Flight recorder for per-operation events; nil (no-op) until
	// SetFlight.
	rec *flight.Recorder
}

// SetMetrics installs remote-tier instrumentation: remote_puts_total,
// remote_gets_total, remote_put_bytes_total, remote_get_bytes_total, and
// remote_transfer_ns (the modeled occupancy of each transfer on the shared
// uplink). A nil registry disables recording.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == nil {
		s.mPuts, s.mGets, s.mPutBytes, s.mGetBytes, s.mTransferNs = nil, nil, nil, nil, nil
		return
	}
	s.mPuts = reg.Counter("remote_puts_total")
	s.mGets = reg.Counter("remote_gets_total")
	s.mPutBytes = reg.Counter("remote_put_bytes_total")
	s.mGetBytes = reg.Counter("remote_get_bytes_total")
	s.mTransferNs = reg.Histogram("remote_transfer_ns")
}

// SetFlight installs a flight recorder that receives one event per put
// and get, wall-clock timed and keyed by object name. A nil recorder
// disables emission.
func (s *Store) SetFlight(rec *flight.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
}

// New constructs a store with the given aggregate bandwidth in
// bytes/second.
func New(aggregateRate float64) (*Store, error) {
	uplink, err := simnet.NewResource("remote-uplink", aggregateRate)
	if err != nil {
		return nil, fmt.Errorf("remotestore: %w", err)
	}
	return &Store{
		objects: make(map[string][]byte),
		uplink:  uplink,
	}, nil
}

// SetStall makes every subsequent Put/Get block for d of real time before
// executing, modeling a hung or badly degraded remote tier. Stalled
// operations still respect context cancellation and any
// transport.WithOpTimeout bound on the context, so callers with deadline
// discipline see a bounded error instead of a hang. Zero clears the fault.
func (s *Store) SetStall(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stall = d
}

// await blocks through the configured stall, honoring the context and the
// per-operation deadline the transports use. It must be called without
// s.mu held: a stalled operation must not freeze the whole store.
func (s *Store) await(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	stall := s.stall
	s.mu.Unlock()
	if stall <= 0 {
		return nil
	}
	var deadline <-chan time.Time
	if d := transport.OpTimeout(ctx); d > 0 && d < stall {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	wait := time.NewTimer(stall)
	defer wait.Stop()
	select {
	case <-wait.C:
		return nil
	case <-deadline:
		return context.DeadlineExceeded
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Put durably stores the object and returns the span the transfer occupies
// on the uplink, given the virtual instant the writer became ready. The
// context bounds the operation against a hung tier (see SetStall); honor
// transport.WithOpTimeout for the same deadline discipline as the
// transports.
func (s *Store) Put(ctx context.Context, ready time.Duration, key string, data []byte) (simnet.Span, error) {
	start := time.Now()
	if err := s.await(ctx); err != nil {
		return simnet.Span{}, fmt.Errorf("remotestore: put %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	span, err := s.uplink.Exec(ready, int64(len(data)))
	if err != nil {
		return simnet.Span{}, fmt.Errorf("remotestore: put %q: %w", key, err)
	}
	s.objects[key] = append([]byte(nil), data...)
	s.mPuts.Inc()
	s.mPutBytes.Add(int64(len(data)))
	s.mTransferNs.ObserveDuration(span.End - span.Start)
	s.rec.Remote("put", key, int64(len(data)), start, time.Since(start))
	return span, nil
}

// Get returns the object and the span its download occupies on the uplink.
// The context bounds the operation like Put's does.
func (s *Store) Get(ctx context.Context, ready time.Duration, key string) ([]byte, simnet.Span, error) {
	start := time.Now()
	if err := s.await(ctx); err != nil {
		return nil, simnet.Span{}, fmt.Errorf("remotestore: get %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[key]
	if !ok {
		return nil, simnet.Span{}, fmt.Errorf("remotestore: no object %q", key)
	}
	span, err := s.uplink.Exec(ready, int64(len(data)))
	if err != nil {
		return nil, simnet.Span{}, fmt.Errorf("remotestore: get %q: %w", key, err)
	}
	s.mGets.Inc()
	s.mGetBytes.Add(int64(len(data)))
	s.mTransferNs.ObserveDuration(span.End - span.Start)
	s.rec.Remote("get", key, int64(len(data)), start, time.Since(start))
	return append([]byte(nil), data...), span, nil
}

// Has reports whether an object exists.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[key]
	return ok
}

// Keys returns the stored object names beginning with prefix, sorted.
// An empty prefix lists everything. This is the catalog operation a real
// object store exposes as LIST: restore paths use it to discover which
// checkpoint versions survive a catastrophic failure, when no in-memory
// version counter is left to consult.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes an object (idempotent).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
}

// TotalBytes returns the total stored volume.
func (s *Store) TotalBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, d := range s.objects {
		total += len(d)
	}
	return total
}
