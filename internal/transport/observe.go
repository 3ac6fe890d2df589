package transport

import (
	"context"
	"strconv"
	"time"

	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
)

// MetricsSetter is implemented by transports that record implementation
// metrics of their own (the TCP transport's dial retries, for example).
type MetricsSetter interface {
	// SetMetrics installs the registry the transport records into. A nil
	// registry disables recording.
	SetMetrics(reg *obs.Registry)
}

// Observe wraps a network so every send and receive is counted into reg:
//
//	transport_sends_total{node,peer}       messages sent node -> peer
//	transport_send_bytes_total{node,peer}  payload bytes sent node -> peer
//	transport_recvs_total{node,peer}       messages received by node from peer
//	transport_recv_bytes_total{node,peer}  payload bytes received
//	transport_send_errors_total{node}      failed sends (peer gone, deadline)
//	transport_recv_errors_total{node}      failed receives
//
// and lands in rec as a timed per-peer send or recv event with its tag and
// byte count; matched send/recv pairs become flow arrows in the exported
// Chrome trace. Either may be nil, and with both nil the network comes back
// unwrapped. The counters are resolved per (node, peer) pair at wrap time,
// so the per-message path is an atomic add, and the clock is read only when
// rec is set.
//
// Layer it outside the chaos wrapper, so the counters see what the protocol
// attempted, injected drops and errors appear as failed transfer events and
// injected latency is part of each span.
func Observe(n Network, reg *obs.Registry, rec *flight.Recorder) Network {
	if n == nil || (reg == nil && rec == nil) {
		return n
	}
	on := &observedNetwork{inner: n, rec: rec}
	if reg == nil {
		return on
	}
	size := n.Size()
	on.nodes = make([]nodeCounters, size)
	for node := range on.nodes {
		nodeL := obs.L("node", strconv.Itoa(node))
		c := &on.nodes[node]
		c.peers = make([]peerCounters, size)
		c.sendErrors = reg.Counter("transport_send_errors_total", nodeL)
		c.recvErrors = reg.Counter("transport_recv_errors_total", nodeL)
		for peer := range c.peers {
			if peer == node {
				continue
			}
			peerL := obs.L("peer", strconv.Itoa(peer))
			c.peers[peer] = peerCounters{
				sends:     reg.Counter("transport_sends_total", nodeL, peerL),
				sendBytes: reg.Counter("transport_send_bytes_total", nodeL, peerL),
				recvs:     reg.Counter("transport_recvs_total", nodeL, peerL),
				recvBytes: reg.Counter("transport_recv_bytes_total", nodeL, peerL),
			}
		}
	}
	return on
}

// nodeCounters are one node's transport counters. Without a registry every
// field is nil; the nil-Counter methods are no-ops.
type nodeCounters struct {
	// peers is indexed by peer; its diagonal entry stays zero (self-sends
	// are invalid anyway), so out-of-range traffic cannot panic the count.
	peers                  []peerCounters
	sendErrors, recvErrors *obs.Counter
}

// peerCounters are one node's counters toward one peer.
type peerCounters struct {
	sends, sendBytes, recvs, recvBytes *obs.Counter
}

// observedNetwork counts and records traffic around an inner network.
type observedNetwork struct {
	inner Network
	rec   *flight.Recorder
	nodes []nodeCounters // nil without a registry
}

func (n *observedNetwork) Size() int    { return n.inner.Size() }
func (n *observedNetwork) Close() error { return n.inner.Close() }

func (n *observedNetwork) Endpoint(node int) (Endpoint, error) {
	ep, err := n.inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	e := &observedEndpoint{ep: ep, rec: n.rec, node: node}
	if node >= 0 && node < len(n.nodes) {
		e.counters = n.nodes[node]
	}
	return e, nil
}

// observedEndpoint counts and records one node's transfers.
type observedEndpoint struct {
	ep       Endpoint
	rec      *flight.Recorder
	node     int
	counters nodeCounters
}

func (e *observedEndpoint) Rank() int { return e.ep.Rank() }

func (e *observedEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	start := e.now()
	err := e.ep.Send(ctx, to, tag, payload)
	e.sent(to, tag, len(payload), start, err)
	return err
}

func (e *observedEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	start := e.now()
	err := SendOwned(ctx, e.ep, to, tag, payload)
	e.sent(to, tag, len(payload), start, err)
	return err
}

func (e *observedEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	start := e.now()
	payload, err := e.ep.Recv(ctx, from, tag)
	if e.rec != nil {
		e.rec.Recv(e.node, from, tag, int64(len(payload)), start, time.Since(start), err)
	}
	if err != nil {
		e.counters.recvErrors.Inc()
		return nil, err
	}
	if from >= 0 && from < len(e.counters.peers) {
		c := &e.counters.peers[from]
		c.recvs.Inc()
		c.recvBytes.Add(int64(len(payload)))
	}
	return payload, nil
}

func (e *observedEndpoint) Close() error { return e.ep.Close() }

// now reads the clock for a transfer event, and only when one is recorded.
func (e *observedEndpoint) now() time.Time {
	if e.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// sent counts and records the outcome of a send of n bytes to node to that
// began at start.
func (e *observedEndpoint) sent(to int, tag string, n int, start time.Time, err error) {
	if e.rec != nil {
		e.rec.Send(e.node, to, tag, int64(n), start, time.Since(start), err)
	}
	if err != nil {
		e.counters.sendErrors.Inc()
		return
	}
	if to >= 0 && to < len(e.counters.peers) {
		c := &e.counters.peers[to]
		c.sends.Inc()
		c.sendBytes.Add(int64(n))
	}
}
