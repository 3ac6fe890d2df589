package transport

import (
	"context"
	"time"
)

// LinkProfile models an interconnect for the in-process transports: a
// fixed per-message cost (propagation plus software stack) and a per-link
// serialization bandwidth. The zero value models an ideal link and
// shapes nothing.
//
// The shaping uses a blocking-send model: the sender is occupied for
// Latency + bytes/GBps before the message is enqueued, exactly the time a
// synchronous network write would hold the caller. That is the cost the
// streaming save pipeline exists to hide — with per-buffer overlap the
// dedicated sender goroutine absorbs link time while encode/XOR proceed;
// phase-coarse rounds pay it on the critical path once per buffer.
type LinkProfile struct {
	// Latency is charged to every message regardless of size.
	Latency time.Duration
	// GBps is the serialization bandwidth in gigabytes per second;
	// zero or negative means infinite (no size-dependent cost).
	GBps float64
}

// cost returns how long the link is occupied by a message of n bytes.
func (p LinkProfile) cost(n int) time.Duration {
	d := p.Latency
	if p.GBps > 0 {
		d += time.Duration(float64(n) / p.GBps)
	}
	return d
}

// WithLink wraps a network so every send first occupies the sending side
// for the profile's cost, modeling a synchronous link write. A zero
// profile returns the network unwrapped. Layer it directly over the
// memory transport (inside WithFlight/WithMetrics, so shaped time shows
// up in transfer spans and histograms like real wire time would).
func WithLink(n Network, link LinkProfile) Network {
	if n == nil || (link.Latency <= 0 && link.GBps <= 0) {
		return n
	}
	return &linkNetwork{inner: n, link: link}
}

// linkNetwork shapes sends around an inner network.
type linkNetwork struct {
	inner Network
	link  LinkProfile
}

func (n *linkNetwork) Size() int    { return n.inner.Size() }
func (n *linkNetwork) Close() error { return n.inner.Close() }

func (n *linkNetwork) Endpoint(node int) (Endpoint, error) {
	ep, err := n.inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &linkEndpoint{Endpoint: ep, link: n.link}, nil
}

// linkEndpoint delays each send by the link cost before handing it to the
// inner endpoint. Receives pass through: delivery time is the sender's
// enqueue time in this model.
type linkEndpoint struct {
	Endpoint
	link LinkProfile
}

func (e *linkEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	if err := e.occupy(ctx, len(payload)); err != nil {
		return err
	}
	return e.Endpoint.Send(ctx, to, tag, payload)
}

func (e *linkEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	if err := e.occupy(ctx, len(payload)); err != nil {
		release(payload)
		return err
	}
	return SendOwned(ctx, e.Endpoint, to, tag, payload)
}

// occupy holds the sender for the link cost of an n-byte message.
func (e *linkEndpoint) occupy(ctx context.Context, n int) error {
	if d := e.link.cost(n); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return nil
}
