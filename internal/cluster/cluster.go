// Package cluster models the machines of a distributed training job for the
// functional layer: each node exposes volatile host memory (a keyed blob
// store standing in for the CPU RAM that in-memory checkpoints occupy) and
// a membership state machine. Failing a node clears its host memory — the
// defining property of in-memory checkpointing that erasure coding exists
// to survive — and replacing a node brings it back empty. A node under a
// preemption notice passes through a Draining state first: its memory and
// transport still work, so it can hand its checkpoint responsibilities to
// a successor before the kill lands.
//
// The checksum helpers (checksum.go) frame what the engine stores: a blob
// is its payload followed by one CRC-32C per window, where the window is the
// engine's buffer size (core.Config.BufferSize). A reader verifies the
// windows it uses; ViewSummed verifies them all.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"eccheck/internal/obs"
)

// NodeState is one machine's membership state: Alive → Draining → Gone,
// with Replace returning a Gone slot to Alive as a fresh machine.
type NodeState uint8

// Membership states.
const (
	// StateAlive is a healthy member: memory and transport work.
	StateAlive NodeState = iota
	// StateDraining is a member under a preemption notice: memory and
	// transport still work (Alive reports true), but the node is handing
	// its responsibilities off and will be Gone shortly.
	StateDraining
	// StateGone is a dead slot: memory destroyed, every operation fails
	// until Replace brings a fresh machine in.
	StateGone
)

// String returns the state name.
func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDraining:
		return "draining"
	case StateGone:
		return "gone"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Cluster is a set of nodes with volatile host memory. It is safe for
// concurrent use.
type Cluster struct {
	mu      sync.RWMutex
	nodes   int
	workers int // per node
	hostMem []map[string][]byte
	state   []NodeState

	// Per-node host-memory traffic counters, indexed by node; nil slices
	// (and the nil Counters inside) are no-ops until SetMetrics.
	mStores     []*obs.Counter
	mStoreBytes []*obs.Counter
	mLoads      []*obs.Counter
	mLoadBytes  []*obs.Counter
}

// SetMetrics installs host-memory traffic counters, one series per node:
// hostmem_stores_total{node}, hostmem_store_bytes_total{node},
// hostmem_loads_total{node} and hostmem_load_bytes_total{node}. Counters
// are resolved once here, so the per-blob cost is one atomic add. A nil
// registry disables recording.
func (c *Cluster) SetMetrics(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.mStores, c.mStoreBytes, c.mLoads, c.mLoadBytes = nil, nil, nil, nil
		return
	}
	c.mStores = make([]*obs.Counter, c.nodes)
	c.mStoreBytes = make([]*obs.Counter, c.nodes)
	c.mLoads = make([]*obs.Counter, c.nodes)
	c.mLoadBytes = make([]*obs.Counter, c.nodes)
	for i := 0; i < c.nodes; i++ {
		nodeL := obs.L("node", strconv.Itoa(i))
		c.mStores[i] = reg.Counter("hostmem_stores_total", nodeL)
		c.mStoreBytes[i] = reg.Counter("hostmem_store_bytes_total", nodeL)
		c.mLoads[i] = reg.Counter("hostmem_loads_total", nodeL)
		c.mLoadBytes[i] = reg.Counter("hostmem_load_bytes_total", nodeL)
	}
}

// New constructs a cluster of n nodes with g workers each.
func New(nodes, workersPerNode int) (*Cluster, error) {
	if nodes <= 0 || workersPerNode <= 0 {
		return nil, fmt.Errorf("cluster: need positive nodes and workers (got %d, %d)",
			nodes, workersPerNode)
	}
	c := &Cluster{
		nodes:   nodes,
		workers: workersPerNode,
		hostMem: make([]map[string][]byte, nodes),
		state:   make([]NodeState, nodes),
	}
	for i := range c.hostMem {
		c.hostMem[i] = make(map[string][]byte)
	}
	return c, nil
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.nodes }

// WorkersPerNode returns the per-node worker count.
func (c *Cluster) WorkersPerNode() int { return c.workers }

func (c *Cluster) checkNode(node int) error {
	if node < 0 || node >= c.nodes {
		return fmt.Errorf("cluster: node %d out of range [0, %d)", node, c.nodes)
	}
	return nil
}

// Ownership rule: a stored blob is immutable while it is stored. Nothing
// here writes to a stored slice or recycles one — an overwrite, Delete, Fail
// and Replace only drop the store's reference — so a slice returned by View
// stays unchanged for as long as it is stored. The one way a slice leaves
// with a new owner is Move, which returns the blob it displaced: what the
// caller does with that buffer, and how it keeps older views of it from
// being read afterwards, is the caller's contract (see core.HostStore).

// Store copies a blob into a node's host memory; the caller keeps its
// buffer. Storing on a failed node is an error: its memory does not exist.
func (c *Cluster) Store(node int, key string, blob []byte) error {
	return c.Adopt(node, key, append([]byte(nil), blob...))
}

// Adopt stores the slice itself — no copy, O(1) under the lock. Ownership
// passes to the store: the caller must never write to blob again, and must
// not recycle it through a buffer pool.
func (c *Cluster) Adopt(node int, key string, blob []byte) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] == StateGone {
		return fmt.Errorf("cluster: node %d is failed", node)
	}
	c.hostMem[node][key] = blob
	if c.mStores != nil {
		c.mStores[node].Inc()
		c.mStoreBytes[node].Add(int64(len(blob)))
	}
	return nil
}

// Move renames a blob within a node's host memory without copying it: the
// stored allocation is reassigned from srcKey to dstKey. It returns the blob
// dstKey held before — the slice itself, untouched, now the caller's; nil
// when the key was empty. Moving a missing key is an error.
func (c *Cluster) Move(node int, srcKey, dstKey string) ([]byte, error) {
	if err := c.checkNode(node); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] == StateGone {
		return nil, fmt.Errorf("cluster: node %d is failed", node)
	}
	blob, ok := c.hostMem[node][srcKey]
	if !ok {
		return nil, fmt.Errorf("cluster: node %d has no blob %q", node, srcKey)
	}
	if srcKey == dstKey {
		return nil, nil
	}
	displaced := c.hostMem[node][dstKey]
	delete(c.hostMem[node], srcKey)
	c.hostMem[node][dstKey] = blob
	return displaced, nil
}

// Load reads a private copy of a blob from a node's host memory.
func (c *Cluster) Load(node int, key string) ([]byte, error) {
	blob, err := c.View(node, key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), blob...), nil
}

// View borrows a stored blob: the stored slice itself, no copy and no
// allocation. The caller must treat it as read-only; by the ownership rule
// it does not change while it stays stored.
func (c *Cluster) View(node int, key string) ([]byte, error) {
	if err := c.checkNode(node); err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.state[node] == StateGone {
		return nil, fmt.Errorf("cluster: node %d is failed", node)
	}
	blob, ok := c.hostMem[node][key]
	if !ok {
		return nil, fmt.Errorf("cluster: node %d has no blob %q", node, key)
	}
	if c.mLoads != nil {
		c.mLoads[node].Inc()
		c.mLoadBytes[node].Add(int64(len(blob)))
	}
	return blob, nil
}

// Has reports whether the node holds the key (false on failed nodes).
func (c *Cluster) Has(node int, key string) bool {
	if err := c.checkNode(node); err != nil {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.state[node] == StateGone {
		return false
	}
	_, ok := c.hostMem[node][key]
	return ok
}

// Keys lists the node's stored keys in sorted order (empty on failure).
func (c *Cluster) Keys(node int) []string {
	if err := c.checkNode(node); err != nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.state[node] == StateGone {
		return nil
	}
	out := make([]string, 0, len(c.hostMem[node]))
	for k := range c.hostMem[node] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MemoryBytes returns the node's total stored bytes, the redundancy-cost
// metric the paper compares replication and erasure coding on.
func (c *Cluster) MemoryBytes(node int) int {
	if err := c.checkNode(node); err != nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, b := range c.hostMem[node] {
		total += len(b)
	}
	return total
}

// Fail marks a node failed and destroys its host memory. Both Alive and
// Draining nodes can fail — a kill landing mid-drain is exactly the
// notice-expired race the drain protocol degrades from.
func (c *Cluster) Fail(node int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] == StateGone {
		return fmt.Errorf("cluster: node %d already failed", node)
	}
	c.state[node] = StateGone
	c.hostMem[node] = make(map[string][]byte) // memory is volatile
	return nil
}

// BeginDrain moves an Alive node to Draining: the node keeps serving its
// memory and transport, but is expected to be Gone soon (a preemption
// notice arrived). Draining a node that is already draining or gone is an
// error.
func (c *Cluster) BeginDrain(node int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state[node] {
	case StateDraining:
		return fmt.Errorf("cluster: node %d is already draining", node)
	case StateGone:
		return fmt.Errorf("cluster: node %d is failed", node)
	}
	c.state[node] = StateDraining
	return nil
}

// EndDrain returns a Draining node to Alive (the preemption was
// cancelled). Ending a drain on a node that is not draining is an error.
func (c *Cluster) EndDrain(node int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] != StateDraining {
		return fmt.Errorf("cluster: node %d is not draining (state %s)", node, c.state[node])
	}
	c.state[node] = StateAlive
	return nil
}

// Replace brings a failed node back as a fresh machine with empty memory.
func (c *Cluster) Replace(node int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state[node] != StateGone {
		return fmt.Errorf("cluster: node %d is not failed", node)
	}
	c.state[node] = StateAlive
	c.hostMem[node] = make(map[string][]byte)
	return nil
}

// Alive reports whether the node is up. Draining nodes are still alive:
// their memory and transport keep working until the kill lands.
func (c *Cluster) Alive(node int) bool {
	if err := c.checkNode(node); err != nil {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state[node] != StateGone
}

// Draining reports whether the node is in the Draining state.
func (c *Cluster) Draining(node int) bool {
	if err := c.checkNode(node); err != nil {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state[node] == StateDraining
}

// State returns the node's membership state (StateGone for out-of-range
// indices, which by construction have no machine).
func (c *Cluster) State(node int) NodeState {
	if err := c.checkNode(node); err != nil {
		return StateGone
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state[node]
}

// AliveNodes returns the indices of all live nodes, ascending.
func (c *Cluster) AliveNodes() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, c.nodes)
	for i, s := range c.state {
		if s != StateGone {
			out = append(out, i)
		}
	}
	return out
}

// FailedNodes returns the indices of all failed nodes, ascending.
func (c *Cluster) FailedNodes() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for i, s := range c.state {
		if s == StateGone {
			out = append(out, i)
		}
	}
	return out
}
