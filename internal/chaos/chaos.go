// Package chaos injects transport-level faults into a running deployment
// and shapes its links: link latency and jitter, dropped or erroring sends,
// and node kills armed to fire after a node's Jth send. It wraps any
// transport.Network, so the same checkpoint protocol that runs over channels
// or TCP can be exercised under a reproducible failure model — the property
// ECRM and Checkmate stress: fault tolerance must hold during the checkpoint
// window, not just between quiescent points.
//
// Determinism: all probabilistic decisions draw from one rand.Rand seeded
// by Plan.Seed, so a single-goroutine access pattern replays exactly.
// Kill schedules count sends per node and are exactly reproducible even
// under concurrency (the Jth send dies no matter which goroutine issues
// it).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"eccheck/internal/bufpool"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/transport"
)

// ErrKilled is returned by every Send/Recv of a node the chaos schedule
// has killed. It models the process being gone: the node never observes
// its own failure as anything but an abrupt end of communication.
var ErrKilled = errors.New("chaos: node killed")

// ErrInjected is returned by sends the fault plan decides to fail with an
// explicit error (a reset connection, a NACKed write).
var ErrInjected = errors.New("chaos: injected send error")

// Kill schedules the death of a node: after its AfterSends-th successful
// send, every further Send/Recv on that node returns ErrKilled.
type Kill struct {
	// Node is the victim's index.
	Node int
	// AfterSends is how many sends the node completes before dying.
	// 0 kills the node on its first send attempt.
	AfterSends int
}

// Preemption schedules a spot-style preemption of a node: after its
// AfterSends-th send a notice fires (observable via SetOnNotice and as a
// "notice" flight event), and Notice later the kill lands exactly like a
// scheduled Kill — unless the node surrenders early with KillNow after
// draining its responsibilities. This is the two-minute-warning fault
// model of preemptible cloud capacity.
type Preemption struct {
	// Node is the victim's index.
	Node int
	// AfterSends is how many sends the node completes before the notice
	// fires. 0 fires the notice on the first send attempt.
	AfterSends int
	// Notice is the warning window between notice and kill; it must be
	// positive (a zero-notice preemption is just a Kill).
	Notice time.Duration
}

// Plan describes the faults to inject. The zero value injects nothing.
type Plan struct {
	// Seed seeds the deterministic random source.
	Seed int64
	// Latency is added to every send before delivery.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// DropProb is the probability a send is silently dropped: the sender
	// sees success, the receiver sees nothing (a lost datagram). Receivers
	// survive drops only if their Recvs carry deadlines.
	DropProb float64
	// ErrProb is the probability a send fails with ErrInjected.
	ErrProb float64
	// Kills are the scheduled node deaths.
	Kills []Kill
	// Preemptions are the scheduled notice-then-kill node deaths.
	Preemptions []Preemption
}

// Stats counts the faults a Network has injected so far.
type Stats struct {
	// Sends is the total send attempts observed (including faulted ones).
	Sends int
	// Dropped is how many sends were silently discarded.
	Dropped int
	// Errored is how many sends failed with ErrInjected.
	Errored int
	// Killed lists the nodes the schedule has killed, in kill order.
	Killed []int
	// Notices is how many preemption notices have fired.
	Notices int
}

// Network wraps a transport.Network and injects the plan's faults into
// every endpoint it hands out. It implements transport.Network.
type Network struct {
	inner transport.Network
	plan  Plan

	mu     sync.Mutex
	rng    *rand.Rand
	sends  []int // per-node successful-send counts
	killAt []int // per-node send threshold; -1 = no kill scheduled
	killed []bool
	// gen is each node's kill-state generation, the one owner of "this
	// machine is doomed": Revive advances it, and a deadline timer kills only
	// the machine of the generation it was armed for.
	gen    []int
	stats  Stats
	onKill func(node int)
	// killing[node] is open while the node's OnKill hook runs and closed
	// once it has returned (nil: no hook ran). Whoever learns that the node
	// is killed — Killed, its next Send or Recv, a second KillNow — waits on
	// it, so "killed" is never observed ahead of what the hook destroys.
	killing []chan struct{}

	// Preemption state: per-node notice send threshold (-1 = none), the
	// warning window, whether the notice has fired, its kill deadline, and
	// the timer that lands the kill when the node does not surrender early.
	preemptAt      []int
	noticeDur      []time.Duration
	noticed        []bool
	deadlines      map[int]time.Time
	deadlineTimers map[int]*time.Timer
	onNotice       func(node int, deadline time.Time)

	// Injected-fault counters by kind; nil (no-op) until SetMetrics.
	mSends   *obs.Counter
	mDropped *obs.Counter
	mErrored *obs.Counter
	mKilled  *obs.Counter
	mReg     *obs.Registry

	// Flight recorder for per-injection events; nil (no-op) until
	// SetFlight.
	rec *flight.Recorder

	// Structured logger for injection verdicts; nil (no-op) until
	// SetLogger.
	log *slog.Logger
}

// Wrap builds a fault-injecting view of inner under the given plan.
func Wrap(inner transport.Network, plan Plan) (*Network, error) {
	if inner == nil {
		return nil, fmt.Errorf("chaos: nil inner network")
	}
	if plan.DropProb < 0 || plan.DropProb > 1 || plan.ErrProb < 0 || plan.ErrProb > 1 {
		return nil, fmt.Errorf("chaos: probabilities must be in [0, 1], got drop=%v err=%v",
			plan.DropProb, plan.ErrProb)
	}
	n := &Network{
		inner:          inner,
		plan:           plan,
		rng:            rand.New(rand.NewSource(plan.Seed)),
		sends:          make([]int, inner.Size()),
		killAt:         make([]int, inner.Size()),
		killed:         make([]bool, inner.Size()),
		gen:            make([]int, inner.Size()),
		killing:        make([]chan struct{}, inner.Size()),
		preemptAt:      make([]int, inner.Size()),
		noticeDur:      make([]time.Duration, inner.Size()),
		noticed:        make([]bool, inner.Size()),
		deadlines:      make(map[int]time.Time),
		deadlineTimers: make(map[int]*time.Timer),
	}
	for i := range n.killAt {
		n.killAt[i] = -1
		n.preemptAt[i] = -1
	}
	for _, k := range plan.Kills {
		if k.Node < 0 || k.Node >= inner.Size() {
			return nil, fmt.Errorf("chaos: kill node %d out of range [0, %d)", k.Node, inner.Size())
		}
		if k.AfterSends < 0 {
			return nil, fmt.Errorf("chaos: negative kill threshold %d", k.AfterSends)
		}
		n.killAt[k.Node] = k.AfterSends
	}
	for _, p := range plan.Preemptions {
		if p.Node < 0 || p.Node >= inner.Size() {
			return nil, fmt.Errorf("chaos: preemption node %d out of range [0, %d)", p.Node, inner.Size())
		}
		if p.AfterSends < 0 {
			return nil, fmt.Errorf("chaos: negative preemption threshold %d", p.AfterSends)
		}
		if p.Notice <= 0 {
			return nil, fmt.Errorf("chaos: preemption notice must be positive, got %v (schedule a Kill for zero notice)", p.Notice)
		}
		n.preemptAt[p.Node] = p.AfterSends
		n.noticeDur[p.Node] = p.Notice
	}
	return n, nil
}

// SetMetrics installs counters recording every injected fault by kind:
// chaos_sends_total (send attempts observed), chaos_dropped_total,
// chaos_errored_total and chaos_killed_total{node}. A nil registry
// disables recording.
func (n *Network) SetMetrics(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if reg == nil {
		n.mSends, n.mDropped, n.mErrored, n.mKilled = nil, nil, nil, nil
		return
	}
	n.mSends = reg.Counter("chaos_sends_total")
	n.mDropped = reg.Counter("chaos_dropped_total")
	n.mErrored = reg.Counter("chaos_errored_total")
	n.mKilled = reg.Counter("chaos_killed_total")
	n.mReg = reg
}

// SetFlight installs a flight recorder that receives one event per
// injected fault (kill, drop, error) with the victim, peer and wire tag
// it hit. A nil recorder disables emission.
func (n *Network) SetFlight(rec *flight.Recorder) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rec = rec
}

// SetLogger installs a structured logger that records every injection
// verdict (notice, kill, drop, error) with the victim, peer and wire
// tag. A nil logger disables verdict logging.
func (n *Network) SetLogger(l *slog.Logger) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = l
}

// SetOnKill installs a hook fired exactly once per killed node, outside the
// network's locks. Deployments use it to destroy the node's volatile host
// memory at the instant its transport dies, so a kill is a full machine
// crash: nobody observes the node as killed (Killed, ErrKilled) before the
// hook has returned. The hook must not ask the network about the node.
func (n *Network) SetOnKill(fn func(node int)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onKill = fn
}

// ScheduleKill arms a kill at runtime: the node dies after afterSends more
// sends, counted from now. It overwrites any earlier schedule for the node.
func (n *Network) ScheduleKill(node, afterSends int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node < 0 || node >= len(n.killAt) {
		return fmt.Errorf("chaos: kill node %d out of range [0, %d)", node, len(n.killAt))
	}
	if afterSends < 0 {
		return fmt.Errorf("chaos: negative kill threshold %d", afterSends)
	}
	if n.killed[node] {
		return fmt.Errorf("chaos: node %d already killed", node)
	}
	n.killAt[node] = n.sends[node] + afterSends
	return nil
}

// SetOnNotice installs a hook fired once per preemption notice, outside
// the network's locks on the goroutine that triggered it (a sender for
// plan-scheduled preemptions). Deployments use it to start draining the
// doomed node before the deadline. It is not fired for notices the caller
// itself requested via SchedulePreemption.
func (n *Network) SetOnNotice(fn func(node int, deadline time.Time)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onNotice = fn
}

// SchedulePreemption delivers a preemption notice to a node right now and
// arms the kill to land after the notice window, returning the deadline.
// If a notice is already pending for the node (for example a
// plan-scheduled preemption fired first), the existing deadline is
// returned unchanged — the platform sets the deadline, not the caller.
// The caller is the notice's audience, so SetOnNotice is not fired.
func (n *Network) SchedulePreemption(node int, notice time.Duration) (time.Time, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node < 0 || node >= len(n.killed) {
		return time.Time{}, fmt.Errorf("chaos: preemption node %d out of range [0, %d)", node, len(n.killed))
	}
	if n.killed[node] {
		return time.Time{}, fmt.Errorf("chaos: node %d already killed", node)
	}
	if notice <= 0 {
		return time.Time{}, fmt.Errorf("chaos: preemption notice must be positive, got %v", notice)
	}
	if n.noticed[node] {
		return n.deadlines[node], nil
	}
	return n.noticeLocked(node, -1, "schedule", notice), nil
}

// noticeLocked records a fired notice and arms the deadline kill; the
// caller holds n.mu. Returns the kill deadline.
func (n *Network) noticeLocked(node, to int, tag string, notice time.Duration) time.Time {
	n.noticed[node] = true
	n.stats.Notices++
	deadline := time.Now().Add(notice)
	n.deadlines[node] = deadline
	n.rec.Chaos("notice", node, to, tag)
	if n.log != nil {
		n.log.Warn("chaos verdict", "verdict", "notice", "node", node, "peer", to, "tag", tag, "deadline", deadline)
	}
	if t := n.deadlineTimers[node]; t != nil {
		t.Stop()
	}
	gen := n.gen[node]
	n.deadlineTimers[node] = time.AfterFunc(notice, func() { n.killNow(node, gen) })
	return deadline
}

// KillNow kills a node immediately, firing the OnKill hook. A drained
// node surrenders early through this instead of wasting the rest of its
// notice window; it also models a zero-notice preemption. Killing an
// already-dead node is a no-op.
func (n *Network) KillNow(node int) error {
	if node < 0 || node >= n.inner.Size() {
		return fmt.Errorf("chaos: kill node %d out of range [0, %d)", node, n.inner.Size())
	}
	n.killNow(node, anyGen)
	return nil
}

// anyGen makes killNow kill whatever machine is in the slot now.
const anyGen = -1

// killNow marks the node killed (if it is not already), mirroring the
// bookkeeping of a send-threshold kill, and fires the OnKill hook outside
// the lock. It runs on deadline-timer goroutines and from KillNow. A timer
// passes the generation it was armed under: one that already fired when
// Revive swapped the machine (Stop came too late) finds a newer generation
// and must not kill the replacement.
func (n *Network) killNow(node, gen int) {
	n.mu.Lock()
	if node < 0 || node >= len(n.killed) || (gen != anyGen && gen != n.gen[node]) {
		n.mu.Unlock()
		return
	}
	hook := n.killSettled(node)
	if !n.killed[node] {
		hook = n.markKilledLocked(node, -1, "preempt")
	}
	n.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// killSettled returns a wait for the OnKill hook of a killed node to have
// returned, or nil when there is nothing to wait for; the caller holds n.mu
// and calls the result after releasing it.
func (n *Network) killSettled(node int) func() {
	if done := n.killing[node]; done != nil {
		return func() { <-done }
	}
	return nil
}

// markKilledLocked flips a node to killed and performs all kill
// bookkeeping (stats, metrics, flight event, timer cleanup); the caller
// holds n.mu. The returned OnKill hook, if any, must be fired after the
// lock is released.
func (n *Network) markKilledLocked(node, to int, tag string) func() {
	n.killed[node] = true
	n.stats.Killed = append(n.stats.Killed, node)
	n.mKilled.Inc()
	if reg := n.mReg; reg != nil {
		reg.Counter("chaos_kills_total", obs.L("node", strconv.Itoa(node))).Inc()
	}
	n.rec.Chaos("kill", node, to, tag)
	if n.log != nil {
		n.log.Warn("chaos verdict", "verdict", "kill", "node", node, "peer", to, "tag", tag)
	}
	if t := n.deadlineTimers[node]; t != nil {
		t.Stop()
		delete(n.deadlineTimers, node)
	}
	delete(n.deadlines, node)
	if fn := n.onKill; fn != nil {
		done := make(chan struct{})
		n.killing[node] = done
		return func() {
			fn(node)
			close(done)
		}
	}
	return nil
}

// Revive clears a node's killed state and any pending kill schedule: the
// failed machine has been swapped for a fresh one, whose transport works
// again. Pair it with cluster.Replace. Reviving a live node is a no-op.
func (n *Network) Revive(node int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node < 0 || node >= len(n.killed) {
		return fmt.Errorf("chaos: revive node %d out of range [0, %d)", node, len(n.killed))
	}
	n.reviveLocked(node)
	return nil
}

// reviveLocked is Revive's body; the caller holds n.mu.
func (n *Network) reviveLocked(node int) {
	n.killed[node] = false
	n.killing[node] = nil
	n.killAt[node] = -1
	// Clear any preemption aimed at the old machine: a stale deadline
	// timer or send threshold must never kill the fresh replacement. The
	// new generation voids a timer that has fired and is waiting for n.mu.
	n.gen[node]++
	n.preemptAt[node] = -1
	n.noticed[node] = false
	delete(n.deadlines, node)
	if t := n.deadlineTimers[node]; t != nil {
		t.Stop()
		delete(n.deadlineTimers, node)
	}
}

// Killed reports whether the schedule has killed the node; when it has, the
// OnKill hook has returned.
func (n *Network) Killed(node int) bool {
	n.mu.Lock()
	if node < 0 || node >= len(n.killed) || !n.killed[node] {
		n.mu.Unlock()
		return false
	}
	settled := n.killSettled(node)
	n.mu.Unlock()
	if settled != nil {
		settled()
	}
	return true
}

// SendCount returns how many send attempts the node has made.
func (n *Network) SendCount(node int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node < 0 || node >= len(n.sends) {
		return 0
	}
	return n.sends[node]
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.Killed = append([]int(nil), n.stats.Killed...)
	return out
}

// Size returns the inner network's node count.
func (n *Network) Size() int { return n.inner.Size() }

// Close stops all pending preemption timers and shuts down the inner
// network.
func (n *Network) Close() error {
	n.mu.Lock()
	for node, t := range n.deadlineTimers {
		t.Stop()
		delete(n.deadlineTimers, node)
	}
	n.mu.Unlock()
	return n.inner.Close()
}

// Endpoint returns node i's fault-injecting endpoint.
func (n *Network) Endpoint(node int) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(node)
	if err != nil {
		return nil, err
	}
	return &chaosEndpoint{net: n, ep: ep}, nil
}

// sendVerdict is the fate the plan assigns one send.
type sendVerdict int

const (
	verdictDeliver sendVerdict = iota
	verdictDrop
	verdictError
	verdictKilled
)

// judgeSend advances the node's send counter, applies the kill and
// preemption schedules and rolls the probabilistic faults. to and tag
// identify the send for the flight-recorder event an injected fault
// emits. The returned delay applies only to delivered sends. The hook (a
// kill's OnKill, the wait for one in flight, or a notice's OnNotice, if
// any) is returned for the caller to fire outside the lock.
func (n *Network) judgeSend(node, to int, tag string) (verdict sendVerdict, delay time.Duration, hook func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed[node] {
		return verdictKilled, 0, n.killSettled(node)
	}
	n.stats.Sends++
	n.sends[node]++
	n.mSends.Inc()
	if at := n.killAt[node]; at >= 0 && n.sends[node] > at {
		hook = n.markKilledLocked(node, to, tag)
		return verdictKilled, 0, hook
	}
	if at := n.preemptAt[node]; at >= 0 && !n.noticed[node] && n.sends[node] > at {
		// The notice fires but the send itself proceeds normally: a node
		// under notice keeps working until the deadline.
		deadline := n.noticeLocked(node, to, tag, n.noticeDur[node])
		if fn := n.onNotice; fn != nil {
			hook = func() { fn(node, deadline) }
		}
	}
	if n.plan.DropProb > 0 && n.rng.Float64() < n.plan.DropProb {
		n.stats.Dropped++
		n.mDropped.Inc()
		n.rec.Chaos("drop", node, to, tag)
		if n.log != nil {
			// Drops and errors can be frequent under aggressive plans:
			// debug level keeps the default stream readable.
			n.log.Debug("chaos verdict", "verdict", "drop", "node", node, "peer", to, "tag", tag)
		}
		return verdictDrop, 0, hook
	}
	if n.plan.ErrProb > 0 && n.rng.Float64() < n.plan.ErrProb {
		n.stats.Errored++
		n.mErrored.Inc()
		n.rec.Chaos("error", node, to, tag)
		if n.log != nil {
			n.log.Debug("chaos verdict", "verdict", "error", "node", node, "peer", to, "tag", tag)
		}
		return verdictError, 0, hook
	}
	delay = n.plan.Latency
	if n.plan.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.plan.Jitter)))
	}
	return verdictDeliver, delay, hook
}

type chaosEndpoint struct {
	net *Network
	ep  transport.Endpoint
}

func (e *chaosEndpoint) Rank() int { return e.ep.Rank() }

func (e *chaosEndpoint) Send(ctx context.Context, to int, tag string, payload []byte) error {
	if deliver, err := e.admit(ctx, to, tag); !deliver {
		return err
	}
	return e.ep.Send(ctx, to, tag, payload)
}

// SendOwned judges the send like Send and forwards the payload's ownership
// with it; a payload the verdict does not deliver goes back to the pool.
func (e *chaosEndpoint) SendOwned(ctx context.Context, to int, tag string, payload []byte) error {
	if deliver, err := e.admit(ctx, to, tag); !deliver {
		bufpool.Put(payload)
		return err
	}
	return transport.SendOwned(ctx, e.ep, to, tag, payload)
}

// admit applies the plan's verdict on one send and waits out its injected
// latency. It reports whether the message goes on to the inner endpoint and,
// when it does not, what the sender sees: nil for a drop.
func (e *chaosEndpoint) admit(ctx context.Context, to int, tag string) (bool, error) {
	verdict, delay, hook := e.net.judgeSend(e.ep.Rank(), to, tag)
	if hook != nil {
		hook()
	}
	switch verdict {
	case verdictKilled:
		return false, fmt.Errorf("chaos: node %d send to %d tag %q: %w", e.ep.Rank(), to, tag, ErrKilled)
	case verdictDrop:
		return false, nil // the sender believes it succeeded
	case verdictError:
		return false, fmt.Errorf("chaos: node %d send to %d tag %q: %w", e.ep.Rank(), to, tag, ErrInjected)
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return false, fmt.Errorf("chaos: send to %d tag %q: %w", to, tag, ctx.Err())
		}
	}
	return true, nil
}

func (e *chaosEndpoint) Recv(ctx context.Context, from int, tag string) ([]byte, error) {
	if e.net.Killed(e.ep.Rank()) {
		return nil, fmt.Errorf("chaos: node %d recv from %d tag %q: %w", e.ep.Rank(), from, tag, ErrKilled)
	}
	return e.ep.Recv(ctx, from, tag)
}

func (e *chaosEndpoint) Close() error { return e.ep.Close() }

var (
	_ transport.Network     = (*Network)(nil)
	_ transport.Endpoint    = (*chaosEndpoint)(nil)
	_ transport.OwnedSender = (*chaosEndpoint)(nil)
)
