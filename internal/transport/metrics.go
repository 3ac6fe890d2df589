package transport

import (
	"context"
	"strconv"

	"eccheck/internal/obs"
)

// MetricsSetter is implemented by transports that record implementation
// metrics of their own (the TCP transport's dial retries, for example).
// WithMetrics forwards the registry to the wrapped network when it
// implements this interface.
type MetricsSetter interface {
	// SetMetrics installs the registry the transport records into. A nil
	// registry disables recording.
	SetMetrics(reg *obs.Registry)
}

// WithMetrics wraps a network so every send and receive is counted into
// the registry:
//
//	transport_sends_total{node,peer}       messages sent node -> peer
//	transport_send_bytes_total{node,peer}  payload bytes sent node -> peer
//	transport_recvs_total{node,peer}       messages received by node from peer
//	transport_recv_bytes_total{node,peer}  payload bytes received
//	transport_send_errors_total{node}      failed sends (peer gone, deadline)
//	transport_recv_errors_total{node}      failed receives
//
// All counters are resolved eagerly per (node, peer) pair at wrap time, so
// the per-message hot path is a single atomic add with no map lookups or
// allocations. A nil registry returns the network unwrapped; if the inner
// network implements MetricsSetter the registry is forwarded so it can
// record its own internals too.
func WithMetrics(n Network, reg *obs.Registry) Network {
	if n == nil || reg == nil {
		return n
	}
	if ms, ok := n.(MetricsSetter); ok {
		ms.SetMetrics(reg)
	}
	size := n.Size()
	mn := &metricsNetwork{
		inner:      n,
		size:       size,
		sends:      make([][]*obs.Counter, size),
		sendBytes:  make([][]*obs.Counter, size),
		recvs:      make([][]*obs.Counter, size),
		recvBytes:  make([][]*obs.Counter, size),
		sendErrors: make([]*obs.Counter, size),
		recvErrors: make([]*obs.Counter, size),
	}
	for node := 0; node < size; node++ {
		nodeL := obs.L("node", strconv.Itoa(node))
		mn.sends[node] = make([]*obs.Counter, size)
		mn.sendBytes[node] = make([]*obs.Counter, size)
		mn.recvs[node] = make([]*obs.Counter, size)
		mn.recvBytes[node] = make([]*obs.Counter, size)
		mn.sendErrors[node] = reg.Counter("transport_send_errors_total", nodeL)
		mn.recvErrors[node] = reg.Counter("transport_recv_errors_total", nodeL)
		for peer := 0; peer < size; peer++ {
			if peer == node {
				continue
			}
			peerL := obs.L("peer", strconv.Itoa(peer))
			mn.sends[node][peer] = reg.Counter("transport_sends_total", nodeL, peerL)
			mn.sendBytes[node][peer] = reg.Counter("transport_send_bytes_total", nodeL, peerL)
			mn.recvs[node][peer] = reg.Counter("transport_recvs_total", nodeL, peerL)
			mn.recvBytes[node][peer] = reg.Counter("transport_recv_bytes_total", nodeL, peerL)
		}
	}
	return mn
}

// metricsNetwork counts traffic around an inner network.
type metricsNetwork struct {
	inner Network
	size  int

	// Indexed [node][peer]; nil on the diagonal (self-sends are invalid
	// anyway) and the nil-Counter methods are no-ops, so out-of-range
	// traffic cannot panic the instrumentation.
	sends      [][]*obs.Counter
	sendBytes  [][]*obs.Counter
	recvs      [][]*obs.Counter
	recvBytes  [][]*obs.Counter
	sendErrors []*obs.Counter
	recvErrors []*obs.Counter
}

func (n *metricsNetwork) Size() int    { return n.inner.Size() }
func (n *metricsNetwork) Close() error { return n.inner.Close() }

func (n *metricsNetwork) Endpoint(node int) (Endpoint, error) {
	ep, err := n.inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &metricsEndpoint{ep: ep, net: n, node: node}, nil
}

// metricsEndpoint counts one node's sends and receives.
type metricsEndpoint struct {
	ep   Endpoint
	net  *metricsNetwork
	node int
}

func (e *metricsEndpoint) Rank() int { return e.ep.Rank() }

func (e *metricsEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	return e.countSend(to, len(payload), e.ep.Send(ctx, to, tag, payload))
}

func (e *metricsEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	return e.countSend(to, len(payload), SendOwned(ctx, e.ep, to, tag, payload))
}

// countSend records the outcome of a send of n bytes to node to.
func (e *metricsEndpoint) countSend(to, n int, err error) error {
	if err != nil {
		e.net.sendErrors[e.node].Inc()
		return err
	}
	if to >= 0 && to < e.net.size {
		e.net.sends[e.node][to].Inc()
		e.net.sendBytes[e.node][to].Add(int64(n))
	}
	return nil
}

func (e *metricsEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	payload, err := e.ep.Recv(ctx, from, tag)
	if err != nil {
		e.net.recvErrors[e.node].Inc()
		return nil, err
	}
	if from >= 0 && from < e.net.size {
		e.net.recvs[e.node][from].Inc()
		e.net.recvBytes[e.node][from].Add(int64(len(payload)))
	}
	return payload, nil
}

func (e *metricsEndpoint) Close() error { return e.ep.Close() }
