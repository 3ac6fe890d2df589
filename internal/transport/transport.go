// Package transport moves real checkpoint bytes between nodes for the
// functional layer of the system. Two implementations share one interface:
// an in-process memory transport (used by tests, examples and the
// single-process simulator) and a TCP transport over net.Listener (used by
// the multi-process cluster example). Message matching is by (peer, tag),
// mirroring the tagged point-to-point semantics of collective communication
// backends such as Gloo.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"eccheck/internal/bufpool"
)

// ErrPeerGone marks a send or receive that can never complete because the
// network (or the endpoint) has been closed: the peer is gone, not slow.
// Callers distinguish it from backpressure or deadline errors with
// errors.Is.
var ErrPeerGone = errors.New("transport: peer gone")

// opTimeoutKey carries the per-operation timeout through a context as a
// plain value. Unlike context.WithTimeout — which allocates a context, a
// Done channel and a timer on every call — a WithOpTimeout context is
// built once and reused across every Send/Recv of a round; the endpoints
// arm a pooled timer per operation instead.
type opTimeoutKey struct{}

// WithOpTimeout returns a context instructing this package's endpoints to
// bound each individual Send and Recv by d (measured from the start of the
// operation, not from this call). The returned context is reusable across
// any number of operations. Cancellation of ctx still interrupts
// operations immediately; the timeout is an additional liveness bound.
func WithOpTimeout(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, opTimeoutKey{}, d)
}

// opTimeout extracts the per-operation timeout, 0 when absent.
func opTimeout(ctx context.Context) time.Duration {
	d, _ := ctx.Value(opTimeoutKey{}).(time.Duration)
	return d
}

// OpTimeout returns the per-operation bound a WithOpTimeout call attached
// to the context, or 0 when none is set. Other I/O layers (the remote
// persistence tier) use it to honor the same deadline discipline as the
// transports without re-deriving configuration.
func OpTimeout(ctx context.Context) time.Duration { return opTimeout(ctx) }

// timerPool recycles the op-timeout timers so an armed deadline costs no
// allocation at steady state.
var timerPool sync.Pool

// opTimer arms a timer for the context's op timeout, or returns nil (and a
// nil channel, blocking forever in a select) when none is set.
func opTimer(ctx context.Context) (*time.Timer, <-chan time.Time) {
	d := opTimeout(ctx)
	if d <= 0 {
		return nil, nil
	}
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t, t.C
	}
	t := time.NewTimer(d)
	return t, t.C
}

// cancelled returns the context's error once it is done. An operation on a
// done context fails on it before it touches a mailbox: a select between a
// ready mailbox and ctx.Done picks either at random. It reads Done, not Err,
// which takes a lock on a cancelable context.
func cancelled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// putOpTimer disarms and recycles a timer from opTimer; nil is a no-op.
func putOpTimer(t *time.Timer) {
	if t == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Endpoint is one node's attachment to the network. Implementations must
// honor a WithOpTimeout bound on the context: each individual operation
// fails with context.DeadlineExceeded once the bound elapses. A payload the
// sender is about to recycle anyway goes through SendOwned instead of Send,
// which hands the buffer itself over where the endpoint can take it.
type Endpoint interface {
	// Rank returns this endpoint's node index.
	Rank() int
	// Send delivers payload to node `to` under the given tag. It blocks
	// only on backpressure, not on the receiver posting a Recv first. The
	// payload is borrowed until Send returns and never after: by then it
	// is fully written to the socket (TCP, straight from the caller's
	// bytes) or copied (memory), so the caller may immediately reuse or
	// recycle its buffer.
	Send(ctx context.Context, to int, tag string, payload []byte) error
	// Recv returns the next payload sent by node `from` under the tag,
	// blocking until one arrives or the context is done. The returned
	// buffer is owned by the caller; it may come from bufpool.Default, so
	// callers that are done with it may Put it back (and must not if the
	// data stays live).
	Recv(ctx context.Context, from int, tag string) ([]byte, error)
	// Close releases the endpoint's resources.
	Close() error
}

// OwnedSender is implemented by endpoints that can take ownership of a
// payload instead of borrowing it: the memory transport, which then enqueues
// the slice itself, and every wrapper that forwards to it. It is a separate
// interface, not a method of Endpoint, so a wrapper that embeds an Endpoint
// and overrides only Send is never skipped by a promoted method: it is not an
// OwnedSender, and SendOwned goes through its Send. Call it through
// SendOwned.
type OwnedSender interface {
	// SendOwned delivers payload like Send but takes ownership of it, on
	// every return, error or not. The receiver's Recv may return this very
	// slice.
	SendOwned(ctx context.Context, to int, tag string, payload []byte) error
}

// SendOwned sends a payload the caller owns and gives it up: payload must come
// from bufpool.Default, and the caller must not read, write or Put it after
// the call, whatever it returns. An endpoint that is an OwnedSender takes it
// over; any other gets it through Send, after which it goes back to the pool.
// Either way a payload that is not delivered is recycled, so the call costs
// no more than Send followed by a Put and, on the memory transport, saves the
// copy.
func SendOwned(ctx context.Context, ep Endpoint, to int, tag string, payload []byte) error {
	if o, ok := ep.(OwnedSender); ok {
		return o.SendOwned(ctx, to, tag, payload)
	}
	err := ep.Send(ctx, to, tag, payload)
	release(payload)
	return err
}

// release recycles a payload the transport owns and did not deliver.
func release(payload []byte) {
	poison(payload)
	bufpool.Put(payload)
}

// Network is a set of connected endpoints.
type Network interface {
	// Endpoint returns node i's endpoint.
	Endpoint(node int) (Endpoint, error)
	// Size returns the number of nodes.
	Size() int
	// Close shuts down every endpoint.
	Close() error
}

// mailboxKey identifies a (sender, receiver, tag) stream.
type mailboxKey struct {
	from int
	to   int
	tag  string
}

// memNetwork is the in-process implementation: a shared set of buffered
// channels keyed by (from, to, tag).
type memNetwork struct {
	size int

	mu    sync.Mutex
	boxes map[mailboxKey]chan []byte

	closeOnce sync.Once
	closed    chan struct{}
}

// NewMemory returns an in-process network of the given size.
func NewMemory(size int) (Network, error) {
	if size <= 0 {
		return nil, fmt.Errorf("transport: network size must be positive, got %d", size)
	}
	return &memNetwork{
		size:   size,
		boxes:  make(map[mailboxKey]chan []byte),
		closed: make(chan struct{}),
	}, nil
}

func (n *memNetwork) Size() int { return n.size }

func (n *memNetwork) Endpoint(node int) (Endpoint, error) {
	if node < 0 || node >= n.size {
		return nil, fmt.Errorf("transport: node %d out of range [0, %d)", node, n.size)
	}
	return &memEndpoint{net: n, rank: node}, nil
}

func (n *memNetwork) Close() error {
	n.closeOnce.Do(func() { close(n.closed) })
	return nil
}

// box returns (creating if needed) the channel for a stream, or the error of
// a context that is already done. The buffer is deep enough that a full
// checkpoint round never deadlocks on unmatched sends. After Close the map is
// frozen: returning ErrPeerGone instead of creating a fresh mailbox closes the
// race where a send racing Close would enqueue into a channel nobody can ever
// drain.
func (n *memNetwork) box(ctx context.Context, k mailboxKey) (chan []byte, error) {
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.closed:
		return nil, ErrPeerGone
	default:
	}
	ch, ok := n.boxes[k]
	if !ok {
		ch = make(chan []byte, 256)
		n.boxes[k] = ch
	}
	return ch, nil
}

type memEndpoint struct {
	net  *memNetwork
	rank int
}

func (e *memEndpoint) Rank() int { return e.rank }

// Send copies the payload into a pooled buffer, so the sender may reuse its
// own the moment Send returns, exactly like a real network write, and hands
// the copy over.
func (e *memEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	cp := bufpool.Get(len(payload))
	copy(cp, payload)
	return e.deliver(ctx, to, tag, cp)
}

// SendOwned enqueues the caller's slice itself.
func (e *memEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	return e.deliver(ctx, to, tag, payload)
}

// deliver enqueues a payload the transport owns: ownership passes to the
// receiver with the channel send, and a payload that is not delivered goes
// back to the pool.
func (e *memEndpoint) deliver(ctx context.Context, to int, tag string, payload []byte) error {
	if to < 0 || to >= e.net.size {
		release(payload)
		return fmt.Errorf("transport: send to node %d out of range [0, %d)", to, e.net.size)
	}
	ch, err := e.net.box(ctx, mailboxKey{from: e.rank, to: to, tag: tag})
	if err != nil {
		release(payload)
		return fmt.Errorf("transport: send to %d tag %q: %w", to, tag, err)
	}
	tm, timeout := opTimer(ctx)
	defer putOpTimer(tm)
	select {
	case ch <- payload:
		return nil
	case <-e.net.closed:
		// The receiver died under us (network torn down mid-send): report
		// it distinguishably so callers do not mistake it for backpressure.
		err = ErrPeerGone
	case <-timeout:
		err = context.DeadlineExceeded
	case <-ctx.Done():
		err = ctx.Err()
	}
	release(payload)
	return fmt.Errorf("transport: send to %d tag %q: %w", to, tag, err)
}

func (e *memEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	if from < 0 || from >= e.net.size {
		return nil, fmt.Errorf("transport: recv from node %d out of range [0, %d)", from, e.net.size)
	}
	ch, err := e.net.box(ctx, mailboxKey{from: from, to: e.rank, tag: tag})
	if err != nil {
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, err)
	}
	tm, timeout := opTimer(ctx)
	defer putOpTimer(tm)
	select {
	case payload := <-ch:
		return payload, nil
	case <-e.net.closed:
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, ErrPeerGone)
	case <-timeout:
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, context.DeadlineExceeded)
	case <-ctx.Done():
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, ctx.Err())
	}
}

func (e *memEndpoint) Close() error { return nil }
