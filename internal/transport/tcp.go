package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"eccheck/internal/bufpool"
	"eccheck/internal/obs"
)

// TCP transport: every node runs a listener; peers dial lazily and keep one
// connection per direction. Frames are length-prefixed, little-endian:
//
//	uint32 from | uint32 tagLen | tag bytes | uint32 payloadLen | payload
//
// One rule governs the data path: the transport borrows the caller's bytes
// until Send returns and never copies them in user space. A send renders the
// 12 + len(tag) header bytes into a scratch kept on the connection and hands
// header and payload to the socket as one vectored write (writev); it takes
// no buffer from the pool and allocates nothing. A reader goroutine per
// accepted connection reads each frame's payload straight into a pooled
// buffer and delivers it to the (from, tag) mailbox; the tag string of a
// stream is allocated once, when its mailbox is created, not per frame.

const (
	maxFrameSize = 1 << 30 // 1 GiB guard against corrupt length fields
	maxTagLen    = 4096    // longest tag a frame may carry
)

// TCPEndpoint is one node of a TCP network. Create one per node with
// NewTCPEndpoint, then exchange the Addr()s and Connect the mesh (or rely
// on lazy dialing via peer addresses passed up front).
type TCPEndpoint struct {
	rank  int
	peers []string // peer addresses by node index; self entry unused
	ln    net.Listener

	mu       sync.Mutex
	conns    map[int]*tcpConn // outbound connections by destination
	accepted map[net.Conn]bool
	boxes    map[int]map[string]chan []byte // mailboxes by sender, then tag

	// Dial instrumentation; nil counters are no-ops, so the fields stay
	// nil until SetMetrics installs a registry.
	dials        *obs.Counter
	dialRetries  *obs.Counter
	dialFailures *obs.Counter

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
	peersOnce sync.Once
	peersSet  chan struct{} // closed by the first SetPeers
}

// SetMetrics installs dial-path counters for the endpoint:
// transport_dials_total{node}, transport_dial_retries_total{node} (backoff
// rounds while a peer's listener is not up yet) and
// transport_dial_failures_total{node} (retry budget exhausted).
func (e *TCPEndpoint) SetMetrics(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if reg == nil {
		e.dials, e.dialRetries, e.dialFailures = nil, nil, nil
		return
	}
	nodeL := obs.L("node", strconv.Itoa(e.rank))
	e.dials = reg.Counter("transport_dials_total", nodeL)
	e.dialRetries = reg.Counter("transport_dial_retries_total", nodeL)
	e.dialFailures = reg.Counter("transport_dial_failures_total", nodeL)
}

// NewTCPEndpoint starts a listener for the node. peers[i] must hold node
// i's address before the first Send/Recv involving i; the caller typically
// creates all endpoints with addr ":0", collects their Addr()s, and passes
// the full list to SetPeers.
func NewTCPEndpoint(rank int, listenAddr string) (*TCPEndpoint, error) {
	if rank < 0 {
		return nil, fmt.Errorf("transport: negative rank %d", rank)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", listenAddr, err)
	}
	e := &TCPEndpoint{
		rank:     rank,
		ln:       ln,
		conns:    make(map[int]*tcpConn),
		accepted: make(map[net.Conn]bool),
		boxes:    make(map[int]map[string]chan []byte),
		closed:   make(chan struct{}),
		peersSet: make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the listener address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// SetPeers installs the address list (indexed by node rank).
func (e *TCPEndpoint) SetPeers(addrs []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers = append([]string(nil), addrs...)
	e.peersOnce.Do(func() { close(e.peersSet) })
}

// Rank returns the endpoint's node index.
func (e *TCPEndpoint) Rank() int { return e.rank }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		e.accepted[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.readLoop(conn)
			e.mu.Lock()
			delete(e.accepted, conn)
			e.mu.Unlock()
		}()
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	// A peer may connect and send the moment the listener is up; its frames
	// wait in the socket until there is a peer table to check their sender
	// against.
	select {
	case <-e.peersSet:
	case <-e.closed:
		return
	}
	hdr := make([]byte, maxTagLen+4) // one per connection, never per frame
	for {
		box, payload, err := e.readFrame(conn, hdr)
		if err != nil {
			return // EOF, or a frame no peer of ours wrote: the stream is unusable
		}
		select {
		case box <- payload:
		case <-e.closed:
			bufpool.Put(payload)
			return
		}
	}
}

// readFrame reads one frame from r and returns the mailbox it is addressed to
// and its payload in a pooled buffer the caller owns. The fixed header fields
// arrive in two reads (from | tagLen, then tag | payloadLen) through hdr, a
// scratch of maxTagLen+4 bytes. Every field is checked before anything is
// allocated on its say-so: a frame with an oversized tag or payload, or a
// sender that is not a peer, is an error, and so is a truncated one — its
// payload buffer goes back to the pool and nothing is delivered.
func (e *TCPEndpoint) readFrame(r io.Reader, hdr []byte) (chan []byte, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, nil, err
	}
	from := binary.LittleEndian.Uint32(hdr[0:])
	tagLen := binary.LittleEndian.Uint32(hdr[4:])
	if tagLen > maxTagLen {
		return nil, nil, fmt.Errorf("transport: frame tag of %d bytes exceeds the %d-byte limit", tagLen, maxTagLen)
	}
	if _, err := io.ReadFull(r, hdr[:tagLen+4]); err != nil {
		return nil, nil, err
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[tagLen:])
	if payloadLen > maxFrameSize {
		return nil, nil, fmt.Errorf("transport: frame payload of %d bytes exceeds the frame limit", payloadLen)
	}
	box, err := e.frameBox(from, hdr[:tagLen])
	if err != nil {
		return nil, nil, err
	}
	// Pooled: ownership passes to the Recv caller with the mailbox send.
	payload := bufpool.Get(int(payloadLen))
	if _, err := io.ReadFull(r, payload); err != nil {
		bufpool.Put(payload)
		return nil, nil, err
	}
	return box, payload, nil
}

// frameBox returns the mailbox of a received frame. Indexing the map with
// string(tag) does not allocate; the tag becomes a string only when the
// stream's mailbox does not exist yet.
func (e *TCPEndpoint) frameBox(from uint32, tag []byte) (chan []byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int64(from) >= int64(len(e.peers)) {
		return nil, fmt.Errorf("transport: frame from node %d, outside [0, %d)", from, len(e.peers))
	}
	if ch, ok := e.boxes[int(from)][string(tag)]; ok {
		return ch, nil
	}
	return e.boxLocked(int(from), string(tag)), nil
}

func (e *TCPEndpoint) box(from int, tag string) chan []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.boxLocked(from, tag)
}

// boxLocked returns (creating if needed) the mailbox of a stream; the caller
// holds e.mu.
func (e *TCPEndpoint) boxLocked(from int, tag string) chan []byte {
	byTag := e.boxes[from]
	if byTag == nil {
		byTag = make(map[string]chan []byte)
		e.boxes[from] = byTag
	}
	ch, ok := byTag[tag]
	if !ok {
		ch = make(chan []byte, 256)
		byTag[tag] = ch
	}
	return ch
}

// tcpConn pairs a lazily dialed connection with its write mutex so one slow
// write never blocks the whole endpoint (readers need e.mu to deliver
// frames). c is nil until the first successful dial and reset to nil on a
// write failure, so the next send redials. hdr, vec and bufs are the framing
// state of the write in progress, kept here so a send allocates nothing.
type tcpConn struct {
	mu   sync.Mutex
	c    net.Conn
	hdr  []byte      // header scratch, grown once to the longest tag sent
	vec  [2][]byte   // backing array of bufs: header, the caller's payload
	bufs net.Buffers // what writev consumes
}

// appendFrameHeader appends everything of a frame that precedes its payload.
func appendFrameHeader(dst []byte, from int, tag string, payloadLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(from))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tag)))
	dst = append(dst, tag...)
	return binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
}

// writeFrame hands the header and the caller's payload to the socket as one
// vectored write; the caller holds tc.mu, so frames never interleave. The
// payload is only borrowed: no reference to it survives the return.
func (tc *tcpConn) writeFrame(from int, tag string, payload []byte) error {
	tc.hdr = appendFrameHeader(tc.hdr[:0], from, tag, len(payload))
	tc.vec = [2][]byte{tc.hdr, payload}
	tc.bufs = tc.vec[:]
	_, err := tc.bufs.WriteTo(tc.c)
	tc.vec = [2][]byte{}
	return err
}

// Dial retry parameters: peers start in arbitrary order (a replacement
// machine joins while the survivors are already sending), so a refused
// connection is retried with capped exponential backoff instead of failing
// permanently.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
	dialRetryFor   = 5 * time.Second
)

// slot returns (creating if needed) the per-destination connection slot and
// the peer's address. Slots are created under e.mu; dialing happens under
// the slot's own lock so a slow dial never blocks frame delivery.
func (e *TCPEndpoint) slot(to int) (*tcpConn, string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if to < 0 || to >= len(e.peers) || e.peers[to] == "" {
		return nil, "", fmt.Errorf("transport: no address for peer %d", to)
	}
	tc, ok := e.conns[to]
	if !ok {
		tc = &tcpConn{}
		e.conns[to] = tc
	}
	return tc, e.peers[to], nil
}

// dialRetry dials addr, retrying with capped exponential backoff until the
// connection succeeds, the context is done, the endpoint closes, or the
// retry budget runs out. It absorbs the startup race where a peer's
// listener is not up yet.
func (e *TCPEndpoint) dialRetry(ctx context.Context, to int, addr string) (net.Conn, error) {
	var d net.Dialer
	e.mu.Lock()
	dials, retries, failures := e.dials, e.dialRetries, e.dialFailures
	e.mu.Unlock()
	dials.Inc()
	retryFor := dialRetryFor
	// An op timeout bounds the whole operation, dial included. Dialing is
	// the cold path, so plain deadline arithmetic (no pooled timer) is fine.
	if ot := opTimeout(ctx); ot > 0 && ot < retryFor {
		retryFor = ot
	}
	deadline := time.Now().Add(retryFor)
	backoff := dialBackoffMin
	for {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			failures.Inc()
			return nil, fmt.Errorf("transport: dial peer %d at %s: %w", to, addr, err)
		}
		retries.Inc()
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			failures.Inc()
			return nil, fmt.Errorf("transport: dial peer %d at %s: %w", to, addr, ctx.Err())
		case <-e.closed:
			timer.Stop()
			failures.Inc()
			return nil, fmt.Errorf("transport: dial peer %d: endpoint closed", to)
		}
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// Send writes one frame to the destination node: header and payload in one
// writev, the payload borrowed until the write returns and never copied in
// user space. Writes to one destination are serialized; the per-destination
// connection preserves (from, tag) FIFO order like the memory transport. An
// op timeout on the context is the write's deadline. A failed write closes
// the connection — a partial frame poisons the stream — and the next send
// redials.
func (e *TCPEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	if err := cancelled(ctx); err != nil {
		return fmt.Errorf("transport: send to %d: %w", to, err)
	}
	if len(tag) > maxTagLen {
		return fmt.Errorf("transport: tag of %d bytes exceeds the %d-byte limit", len(tag), maxTagLen)
	}
	if len(payload) > maxFrameSize {
		return fmt.Errorf("transport: payload of %d bytes exceeds frame limit", len(payload))
	}
	tc, addr, err := e.slot(to)
	if err != nil {
		return err
	}

	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.c == nil {
		c, err := e.dialRetry(ctx, to, addr)
		if err != nil {
			return err
		}
		tc.c = c
	}
	// The zero time clears the deadline a bounded send left on the socket.
	var deadline time.Time
	if d := opTimeout(ctx); d > 0 {
		deadline = time.Now().Add(d)
	}
	err = tc.c.SetWriteDeadline(deadline)
	if err == nil {
		err = tc.writeFrame(e.rank, tag, payload)
	}
	if err != nil {
		_ = tc.c.Close()
		tc.c = nil // next send redials
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = context.DeadlineExceeded
		}
		return fmt.Errorf("transport: write to peer %d: %w", to, err)
	}
	return nil
}

// Recv blocks until a frame from the peer with the tag arrives.
func (e *TCPEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	if err := cancelled(ctx); err != nil {
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, err)
	}
	ch := e.box(from, tag)
	tm, timeout := opTimer(ctx)
	defer putOpTimer(tm)
	select {
	case payload := <-ch:
		return payload, nil
	case <-e.closed:
		return nil, fmt.Errorf("transport: endpoint closed")
	case <-timeout:
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, context.DeadlineExceeded)
	case <-ctx.Done():
		return nil, fmt.Errorf("transport: recv from %d tag %q: %w", from, tag, ctx.Err())
	}
}

// Close shuts the endpoint down and waits for its goroutines.
func (e *TCPEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		_ = e.ln.Close()
		e.mu.Lock()
		conns := make([]*tcpConn, 0, len(e.conns))
		for _, tc := range e.conns {
			conns = append(conns, tc)
		}
		for conn := range e.accepted {
			_ = conn.Close()
		}
		e.mu.Unlock()
		// Take each slot's own lock: in-flight dial loops abort on e.closed
		// and writes finish before we close the connection under them.
		for _, tc := range conns {
			tc.mu.Lock()
			if tc.c != nil {
				_ = tc.c.Close()
				tc.c = nil
			}
			tc.mu.Unlock()
		}
	})
	e.wg.Wait()
	return nil
}

var _ Endpoint = (*TCPEndpoint)(nil)

// tcpNetwork adapts a set of TCPEndpoints to the Network interface for
// single-process multi-socket runs.
type tcpNetwork struct {
	eps []*TCPEndpoint
}

// NewTCPLoopback constructs a size-node network where every node listens on
// a loopback port and all peers are wired up. It exercises the real TCP
// stack inside one process.
func NewTCPLoopback(size int) (Network, error) {
	if size <= 0 {
		return nil, fmt.Errorf("transport: network size must be positive, got %d", size)
	}
	eps := make([]*TCPEndpoint, size)
	addrs := make([]string, size)
	for i := 0; i < size; i++ {
		ep, err := NewTCPEndpoint(i, "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				_ = eps[j].Close()
			}
			return nil, err
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	for _, ep := range eps {
		ep.SetPeers(addrs)
	}
	return &tcpNetwork{eps: eps}, nil
}

// SetMetrics forwards the registry to every endpoint's dial counters.
func (n *tcpNetwork) SetMetrics(reg *obs.Registry) {
	for _, ep := range n.eps {
		ep.SetMetrics(reg)
	}
}

func (n *tcpNetwork) Size() int { return len(n.eps) }

func (n *tcpNetwork) Endpoint(node int) (Endpoint, error) {
	if node < 0 || node >= len(n.eps) {
		return nil, fmt.Errorf("transport: node %d out of range [0, %d)", node, len(n.eps))
	}
	return n.eps[node], nil
}

func (n *tcpNetwork) Close() error {
	var firstErr error
	for _, ep := range n.eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
