package transport

import (
	"context"
	"time"

	"eccheck/internal/obs/flight"
)

// FlightSetter is implemented by transports that emit flight-recorder
// events of their own. WithFlight forwards the recorder to the wrapped
// network when it implements this interface.
type FlightSetter interface {
	// SetFlight installs the flight recorder the transport emits into.
	// A nil recorder disables emission.
	SetFlight(rec *flight.Recorder)
}

// WithFlight wraps a network so every send and receive lands in the
// flight recorder as a timed per-peer event with its tag and byte
// count; matched send/recv pairs become flow arrows in the exported
// Chrome trace. A nil recorder returns the network unwrapped, keeping
// the disabled path free; if the inner network implements FlightSetter
// the recorder is forwarded too.
//
// Layer WithFlight outside WithMetrics (or inside — both wrappers are
// transparent), but always outside the chaos wrapper so injected drops
// and errors appear as failed transfer events.
func WithFlight(n Network, rec *flight.Recorder) Network {
	if n == nil || rec == nil {
		return n
	}
	if fs, ok := n.(FlightSetter); ok {
		fs.SetFlight(rec)
	}
	return &flightNetwork{inner: n, rec: rec}
}

// flightNetwork records transfer events around an inner network.
type flightNetwork struct {
	inner Network
	rec   *flight.Recorder
}

func (n *flightNetwork) Size() int    { return n.inner.Size() }
func (n *flightNetwork) Close() error { return n.inner.Close() }

func (n *flightNetwork) Endpoint(node int) (Endpoint, error) {
	ep, err := n.inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &flightEndpoint{ep: ep, rec: n.rec, node: node}, nil
}

// flightEndpoint records one node's transfers.
type flightEndpoint struct {
	ep   Endpoint
	rec  *flight.Recorder
	node int
}

func (e *flightEndpoint) Rank() int { return e.ep.Rank() }

func (e *flightEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	start := time.Now()
	err := e.ep.Send(ctx, to, tag, payload)
	e.rec.Send(e.node, to, tag, int64(len(payload)), start, time.Since(start), err)
	return err
}

func (e *flightEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	start := time.Now()
	err := SendOwned(ctx, e.ep, to, tag, payload)
	e.rec.Send(e.node, to, tag, int64(len(payload)), start, time.Since(start), err)
	return err
}

func (e *flightEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	start := time.Now()
	payload, err := e.ep.Recv(ctx, from, tag)
	e.rec.Recv(e.node, from, tag, int64(len(payload)), start, time.Since(start), err)
	return payload, err
}

func (e *flightEndpoint) Close() error { return e.ep.Close() }
