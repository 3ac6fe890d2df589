// Package core implements the ECCheck engine: erasure-coded in-memory
// checkpointing for distributed DNN training. It is the paper's primary
// contribution, built on the substrate packages:
//
//   - serialization-free encoding protocol: each worker's sharded state
//     dict is decomposed (statedict), its tensor payload becomes a packet
//     consumed in place by the Cauchy Reed-Solomon coder (erasure), and
//     only the tiny metadata components are serialized and broadcast;
//   - distributed three-step checkpointing: per-worker encoding, XOR
//     reduction across reduction groups, and P2P placement of data and
//     parity chunks, following a placement.Plan (sweep-line node selection
//     and reduction-target assignment);
//   - buffered, pipelined execution: packets stream through fixed-size
//     data and encoding buffers so encoding, reduction and communication
//     overlap;
//   - two recovery workflows: replacement-only (all data chunks intact)
//     and distributed decode (data chunks lost), both restoring full fault
//     tolerance afterwards;
//   - low-frequency remote persistence against catastrophic failures.
//
// Save and Load run one goroutine per node over a transport.Network, so the
// functional engine is a real distributed protocol that also runs unchanged
// over TCP.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/bufpool"
	"eccheck/internal/cluster"
	"eccheck/internal/ecpool"
	"eccheck/internal/erasure"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/obs/health"
	"eccheck/internal/parallel"
	"eccheck/internal/placement"
	"eccheck/internal/remotestore"
	"eccheck/internal/transport"
)

// Default buffer configuration from the paper's evaluation settings.
const (
	// DefaultBufferSize is the paper's 64 MB pipeline buffer.
	DefaultBufferSize = 64 << 20
	// pipelineDepth bounds the buffer windows a node holds in flight: the
	// streaming save's encode loop runs at most this many windows ahead of
	// the slowest outstanding delivery, so the pooled staging footprint is
	// pipelineDepth × BufferSize per node. encodingBuffers sizes a node's
	// outbound send queue. Both are the paper's one evaluated setting (12
	// data + 24 encoding buffers, §VI), not options: no depth sweep on the
	// hosts this repository is measured on separated one depth from another
	// (DESIGN.md §10).
	pipelineDepth   = 12
	encodingBuffers = 24
	// poolThreshold is the smallest region a coding kernel splits across
	// the engine's thread pool (ecpool): a column product, a scalar
	// multiply or a fold of one window. Below it the dispatch costs more
	// than the split saves, and the kernel runs on the calling goroutine.
	poolThreshold = 256 << 10
	// restoreWorkers bounds the coordinator-side restore fan-out
	// (LoadFromRemote's per-rank fetch+decode, LoadPartial's per-rank
	// fetch, decode and reassembly). A constant because the work is
	// latency-bound waits on independent blobs, so any width above one
	// overlaps them, and no caller has needed another.
	restoreWorkers = 8
	// DefaultRemotePersistEvery persists to remote storage every Nth save.
	DefaultRemotePersistEvery = 10
	// DefaultOpTimeout bounds every protocol Send/Recv so a crashed peer
	// turns into an error instead of a hang.
	DefaultOpTimeout = 60 * time.Second
	// remoteRetain is how many persisted checkpoint versions stay in remote
	// storage: the newest, and the one before it for a reader that started
	// before the newest landed, counted over the complete versions of the
	// catalog. Older ones are deleted after each persist.
	remoteRetain = 2
)

// Config parameterises a Checkpointer.
type Config struct {
	// Topo is the training topology; the node count must be a multiple of
	// K+M. Each K+M consecutive nodes form one code group (see
	// placement.Plan): G·(K+M) nodes checkpoint as G independent groups
	// inside the same round, version and commit.
	Topo *parallel.Topology
	// K and M are the erasure-code parameters: K data nodes and M parity
	// nodes per code group, tolerating any M concurrent machine failures in
	// each group.
	K, M int
	// BufferSize is the streaming window size in bytes: each node's packet
	// is split into buffer windows of this size and the windows stream
	// through the save pipeline, so encoding, XOR reduction and P2P
	// communication for window i+1 overlap the commit of window i. It is
	// also the checksum granularity: every stored blob carries one CRC-32C
	// per window, so a delta round verifies only the windows it reads.
	// Defaults to DefaultBufferSize.
	BufferSize int
	// RemotePersistEvery persists every Nth checkpoint to remote storage
	// (step 4); 0 means DefaultRemotePersistEvery. Negative values are
	// rejected: a nil remote store, passed to New, is the one way to turn
	// remote persistence off.
	RemotePersistEvery int
	// IncrementalCache makes every node retain its own workers' packets in
	// host memory so SaveIncremental can diff against them. A worker whose
	// data chunk is stored on its own machine diffs against that chunk's
	// segment, so the cost is one extra packet of memory per worker whose
	// data chunk is stored on another machine.
	IncrementalCache bool
	// OpTimeout is the deadline applied to every individual Send/Recv of
	// the save and load protocols, bounding how long a round can hang on a
	// peer that crashed mid-round. 0 selects DefaultOpTimeout; negative
	// disables deadlines.
	OpTimeout time.Duration
	// LoadBudget is the restore-latency SLO: when positive, every Load,
	// LoadPartial and LoadFromRemote stamps its report with the budget and
	// sets DeadlineExceeded when the round's wall time overran it. The
	// budget is observational, not a hard deadline — a restore that blows
	// its SLO still completes (a late recovery beats no recovery), but the
	// overrun increments load_budget_exceeded_total, lands in the flight
	// recorder, and attaches the round's event tail to the report so the
	// violation is diagnosable postmortem. 0 disables budget tracking.
	LoadBudget time.Duration
	// Metrics receives the engine's counters, phase histograms and spans
	// (save_phase_ns, load_phase_ns, save_rounds_total, ...). Nil disables
	// instrumentation at zero cost.
	Metrics *obs.Registry
	// Flight receives the engine's event timeline: round begin/end,
	// per-node phase spans, the commit barrier, corruption-as-erasure
	// hits. Failed rounds attach their event tail to the report as a
	// postmortem. Nil disables event emission at zero cost.
	Flight *flight.Recorder
	// Health receives round-lifecycle, budget and stuck-round callbacks
	// for protection scoring (see internal/obs/health). Nil disables
	// health tracking at zero cost.
	Health *health.Tracker
	// Logger receives structured round-lifecycle and membership logs with
	// op/round/node correlation attributes. Nil disables logging at zero
	// cost on the hot path.
	Logger *slog.Logger
	// WatchdogFactor arms the stuck-round watchdog: a live round whose
	// current phase exceeds this multiple of the phase's rolling p99
	// duration is flagged (flight EvStuck event, round_stuck_total
	// counter, health stuck callback, live postmortem tail) while still
	// in flight. 0 disables the watchdog at zero cost; values below 1
	// are rejected (a threshold under the observed p99 would flag
	// healthy rounds).
	WatchdogFactor float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.BufferSize == 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.RemotePersistEvery == 0 {
		c.RemotePersistEvery = DefaultRemotePersistEvery
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = DefaultOpTimeout
	}
	return c
}

// HostStore is the volatile per-node host memory the engine checkpoints
// into. cluster.Cluster implements it; tests substitute fault-injecting
// wrappers through it.
type HostStore interface {
	// Nodes returns the node count.
	Nodes() int
	// WorkersPerNode returns the per-node worker count.
	WorkersPerNode() int
	// Alive reports whether the node is up.
	Alive(node int) bool
	// Store copies a blob into a node's host memory.
	Store(node int, key string, blob []byte) error
	// Adopt stores the slice itself, without copying. A stored blob is
	// immutable while it is stored: the caller never writes to it again and
	// never recycles it through a buffer pool.
	Adopt(node int, key string, blob []byte) error
	// View borrows the stored slice, without copying. Read-only, and good
	// only while the key cannot be committed over: hold commitMu shared (a
	// restore round, VerifyIntegrity) or the save slot (a drain, a
	// membership change) for as long as the view is read.
	View(node int, key string) ([]byte, error)
	// Move renames a blob within a node's host memory without copying it
	// and returns the blob it displaced (nil if none), now the caller's: a
	// commit keeps displaced segments as the next round's staging buffers.
	Move(node int, srcKey, dstKey string) ([]byte, error)
	// Has reports whether the node holds the key.
	Has(node int, key string) bool
	// Delete removes a blob (a no-op for missing keys).
	Delete(node int, key string) error
}

var _ HostStore = (*cluster.Cluster)(nil)

// Checkpointer is the ECCheck engine bound to a cluster, a network and an
// optional remote store. It corresponds to the paper's eccheck.initialize:
// construction fixes the encoding matrix and communication strategy.
type Checkpointer struct {
	cfg    Config
	code   *erasure.Code
	pool   *ecpool.Pool
	buf    *bufpool.Pool
	net    transport.Network
	clus   HostStore
	remote *remotestore.Store // may be nil
	// phaseHist pre-resolves the phase-breakdown histogram series per
	// (op, node, phase); nil when metrics are off.
	phaseHist map[string][]map[string]*obs.Histogram

	// lay is the placement layout (plan, key table, save streams),
	// compiled in New and never replaced.
	lay *layout

	// version is the latest committed checkpoint version. It advances only
	// at a save round's commit barrier (possibly on a background drain
	// goroutine), so it is atomic: Version() is safe to poll while a
	// SaveAsync drains. packet is the packet size that version was encoded
	// with, which fixes the shape of its payload blobs.
	version, packet atomic.Int64

	// commitMu makes a save round's commit — the rename of its staged blobs
	// onto the final keys plus the version bump — atomic with respect to
	// recoveries: every host-memory restore round (Load, LoadPartial,
	// PrefetchChunk) and VerifyIntegrity hold it shared for their whole
	// length, so one that races a SaveAsync drain reads one checkpoint
	// version, never a mixture. Uncontended (and free) unless the two
	// overlap.
	commitMu sync.RWMutex

	// Lifecycle state: every round in flight, so Close can cancel whatever
	// is running before the transport goes away, and the save slot, which
	// one save round (Save, SaveAsync or SaveIncremental) or membership step
	// holds at a time. See round.
	lc lifecycle

	// epoch counts aborted save and repairing restore rounds; tags caches the
	// protocols' message tags rendered for it (see tagTable).
	epoch atomic.Int64
	tags  atomic.Pointer[tagTable]

	// spares holds, by node, a stack of the payload blobs (segments and
	// own-packet caches, one shape) commits displaced and no round has taken
	// since: the next round's staging area, so a steady-state save allocates
	// no payload-sized host blob. Added to by commitStaged and by a snapshot
	// that gives back what it took (takeBlob, spareBlob); taken one per
	// in-place packet by snapshotNode, one per other touched segment by
	// nodeDrain and one per rebuilt segment by nodeLoad; cleared by an
	// aborted drain; stocked with the node's chunk by WithSaveFence. The save
	// slot's holder and a repairing restore, which holds the restore slot
	// instead, take from one stack concurrently, so every access holds
	// spareMu. Never host-store keys, so no memory accounting sees them.
	spareMu sync.Mutex
	spares  [][][]byte

	// restoreSlot (capacity 1) is held by a restore round that repairs host
	// memory, from its scan to its last landing: two such rounds would
	// rebuild the same chunks under the same tags and land over each other.
	restoreSlot chan struct{}

	// Membership state: custody records for drained slots, keyed by node.
	// Guarded by memMu; mutated only while the save slot is held.
	memMu   sync.Mutex
	custody map[int]*custodyRecord

	// wd is the stuck-round watchdog; nil when Config.WatchdogFactor is 0.
	wd *watchdog
}

// layout bundles a compiled placement plan with its derived key table and
// the save round's streams.
type layout struct {
	plan *placement.Plan
	keys keyTable
	// streams holds, by machine, what its save round sends and receives.
	// Compiled once per layout so the per-round drain does only lookups.
	streams []saveStreams
	// encode holds, by data group j, the generator's parity column
	// E[k..k+m-1][j] compiled into one schedule (erasure.Code.Column): a
	// worker's window times its m coefficients, output i feeding parity
	// index i's reduction.
	encode []*bitmatrix.Schedule
}

// saveStreams is one machine's share of a save round's step 3, fixed by the
// plan. No two workers of a reduction share a machine (a reduction's workers
// are a span apart, and the span exceeds the GPUs per machine), so a
// machine's partial for a reduction is its one worker's column product:
// only the reduction's root folds.
type saveStreams struct {
	// products[i·M+pi] routes the column product for parity index pi of the
	// machine's i-th local worker.
	products []product
	// roots are the reductions this machine roots.
	roots []rootReduction
	// land are the parity and data streams that land in this machine's
	// chunk.
	land []inStream
}

// product is where one local worker's column product goes: reduction red
// (an index of plan.Reductions) rooted at machine to, where it folds into
// roots[fold]; on any other machine fold is -1 and the product is the
// partial it sends the root.
type product struct {
	red, to, fold int
}

// rootReduction is a reduction a machine roots: the partial streams of its
// other source machines, and where its folded parity goes — segment seg of
// machine parityTo's chunk, landed in place when that is the root.
type rootReduction struct {
	red           int
	partials      []inStream
	parityTo, seg int
}

// inStream is one inbound window stream of a save round: its sender, its
// reduction (-1 for a worker's data stream), the segment of the receiver's
// chunk it lands in (parity and data streams), and the workers whose
// ship-sets it follows — the union names the windows it carries.
type inStream struct {
	from, red, seg int
	workers        []int
}

// compileStreams derives every machine's saveStreams from the plan.
func compileStreams(cfg *Config, plan *placement.Plan) []saveStreams {
	g := cfg.Topo.GPUsPerNode()
	out := make([]saveStreams, cfg.Topo.Nodes())
	for node := range out {
		out[node].products = make([]product, g*cfg.M)
	}
	for ri, r := range plan.Reductions {
		root := r.Target / g
		rr := rootReduction{red: ri, parityTo: plan.ChunkOwner(r.CodeGroup, cfg.K+r.ParityIndex), seg: r.Group}
		for i, w := range r.Workers {
			node, fold := w/g, -1
			if node == root {
				fold = len(out[root].roots)
			} else {
				rr.partials = append(rr.partials, inStream{from: node, red: ri, workers: r.Workers[i : i+1]})
			}
			out[node].products[w%g*cfg.M+r.ParityIndex] = product{red: ri, to: root, fold: fold}
		}
		out[root].roots = append(out[root].roots, rr)
		if rr.parityTo != root {
			out[rr.parityTo].land = append(out[rr.parityTo].land, inStream{from: root, red: ri, seg: r.Group, workers: r.Workers})
		}
	}
	for w := 0; w < cfg.Topo.World(); w++ {
		if owner := plan.ChunkOwner(plan.GroupOfRank(w), plan.DataGroupOf[w]); owner != w/g {
			out[owner].land = append(out[owner].land, inStream{from: w / g, red: -1, seg: plan.SegmentOf[w], workers: []int{w}})
		}
	}
	return out
}

// newLayout compiles the layout for one plan: the key table, the save
// streams and the encode columns of the code.
func newLayout(cfg *Config, plan *placement.Plan, code *erasure.Code) (*layout, error) {
	encode := make([]*bitmatrix.Schedule, cfg.K)
	coefs := make([]int, cfg.M)
	for j := range encode {
		for i := range coefs {
			coef, err := code.ParityCoefficient(i, j)
			if err != nil {
				return nil, err
			}
			coefs[i] = coef
		}
		col, err := code.Column(coefs)
		if err != nil {
			return nil, err
		}
		encode[j] = col
	}
	return &layout{plan: plan, keys: buildKeyTable(cfg, plan), streams: compileStreams(cfg, plan), encode: encode}, nil
}

// Lifecycle errors (test with errors.Is).
var (
	// ErrSaveInFlight is returned by the non-blocking save paths (Save,
	// SaveIncremental) when another save round is already running.
	// SaveAsync instead waits for the in-flight drain.
	ErrSaveInFlight = errors.New("core: save already in flight")
	// ErrClosed is returned by every round started after Close.
	ErrClosed = errors.New("core: checkpointer closed")
	// ErrSaveAborted marks a round that Close cancelled mid-flight; Close
	// returns it (wrapped) so callers know work was thrown away, and the
	// aborted round's own error chain carries it too.
	ErrSaveAborted = errors.New("core: round aborted by Close")
)

// keyTable pre-renders every host-memory key a checkpoint round touches.
// The key layout is fixed by the plan, so formatting them per round would
// be pure allocator churn on the hot path.
type keyTable struct {
	small   []string   // by rank: the worker's small-component blob
	base    []baseKey  // by rank
	segment [][]string // by chunk (of any code group), then segment
	// commit is each node's full key set in commit order (manifest last);
	// staged holds the keyStaged counterparts, index-aligned. stagedOf
	// maps a final key to its staged key for the save path's stage().
	commit   [][]string
	staged   [][]string
	stagedOf map[string]string
}

// baseKey is a rank's delta base: the key, on the rank's own node, of its
// packet as the committed checkpoint holds it.
type baseKey struct {
	key string
	// cache marks the own-packet cache own/<rank>, a blob kept for the delta
	// alone; otherwise key is the rank's data segment, which the round
	// rewrites anyway.
	cache bool
}

// buildKeyTable renders the keys for one compiled plan.
func buildKeyTable(cfg *Config, plan *placement.Plan) keyTable {
	world := cfg.Topo.World()
	nodes := cfg.Topo.Nodes()
	g := cfg.Topo.GPUsPerNode()
	span := plan.Span()
	t := keyTable{
		small:    make([]string, world),
		base:     make([]baseKey, world),
		segment:  make([][]string, cfg.K+cfg.M),
		commit:   make([][]string, nodes),
		staged:   make([][]string, nodes),
		stagedOf: make(map[string]string),
	}
	for chunk := range t.segment {
		t.segment[chunk] = make([]string, span)
		for s := 0; s < span; s++ {
			t.segment[chunk][s] = keySegment(chunk, s)
		}
	}
	for rank := 0; rank < world; rank++ {
		t.small[rank] = fmt.Sprintf("small/%d", rank)
		// The code is systematic: a data chunk's segment is its worker's raw
		// packet. A rank whose data chunk is stored on its own node diffs
		// against that segment; any other keeps a cache, the only local copy.
		j := plan.DataGroupOf[rank]
		if plan.ChunkOwner(plan.GroupOfRank(rank), j) == rank/g {
			t.base[rank] = baseKey{key: t.segment[j][plan.SegmentOf[rank]]}
		} else {
			t.base[rank] = baseKey{key: keyOwnPacket(rank), cache: true}
		}
	}
	for node := 0; node < nodes; node++ {
		// A node holds the small components of its code group's workers.
		lo, hi := plan.RankRange(plan.GroupOfNode(node))
		keys := make([]string, 0, (hi-lo)+g+span+1)
		keys = append(keys, t.small[lo:hi]...)
		for w := node * g; w < (node+1)*g && cfg.IncrementalCache; w++ {
			if t.base[w].cache {
				keys = append(keys, t.base[w].key)
			}
		}
		chunk := plan.ChunkOfNode[node]
		keys = append(keys, t.segment[chunk]...)
		keys = append(keys, keyManifest())
		staged := make([]string, len(keys))
		for i, key := range keys {
			staged[i] = keyStaged(key)
			t.stagedOf[key] = staged[i]
		}
		t.commit[node] = keys
		t.staged[node] = staged
	}
	return t
}

// New validates the configuration, compiles the communication plan (data
// and parity node selection via sweep line, reduction targets, transfers)
// and constructs the code. remote may be nil to disable step 4.
func New(cfg Config, net transport.Network, clus HostStore, remote *remotestore.Store) (*Checkpointer, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if clus == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if net.Size() != cfg.Topo.Nodes() {
		return nil, fmt.Errorf("core: network has %d nodes, topology %d", net.Size(), cfg.Topo.Nodes())
	}
	if clus.Nodes() != cfg.Topo.Nodes() || clus.WorkersPerNode() != cfg.Topo.GPUsPerNode() {
		return nil, fmt.Errorf("core: cluster %dx%d does not match topology %dx%d",
			clus.Nodes(), clus.WorkersPerNode(), cfg.Topo.Nodes(), cfg.Topo.GPUsPerNode())
	}
	if cfg.BufferSize <= 0 {
		return nil, fmt.Errorf("core: buffer size must be positive, got %d", cfg.BufferSize)
	}
	if cfg.BufferSize%64 != 0 {
		return nil, fmt.Errorf("core: buffer size %d must be a multiple of 64 (the coding alignment)",
			cfg.BufferSize)
	}
	if cfg.RemotePersistEvery < 0 {
		return nil, fmt.Errorf("core: remote persist interval must be positive, got %d (pass a nil remote store to disable persistence)", cfg.RemotePersistEvery)
	}
	if cfg.LoadBudget < 0 {
		return nil, fmt.Errorf("core: load budget must be non-negative, got %v", cfg.LoadBudget)
	}
	if cfg.WatchdogFactor != 0 && cfg.WatchdogFactor < 1 {
		return nil, fmt.Errorf("core: watchdog factor must be 0 (disabled) or at least 1, got %v", cfg.WatchdogFactor)
	}
	plan, err := placement.New(cfg.Topo, cfg.K, cfg.M)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	code, err := erasure.New(cfg.K, cfg.M)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The engine shares the process-wide buffer pool with the transports
	// and the cluster store, so one round's released buffers are reusable
	// by every layer. When instrumentation is on, the pool's counters land
	// in this engine's registry (last engine to install a registry wins,
	// matching the pool's process-wide scope).
	if cfg.Metrics != nil {
		bufpool.Default.SetMetrics(cfg.Metrics)
	}
	if cfg.Flight != nil {
		bufpool.Default.SetFlight(cfg.Flight)
	}
	c := &Checkpointer{
		cfg:       cfg,
		code:      code,
		pool:      ecpool.NewPool(0),
		buf:       bufpool.Default,
		net:       net,
		clus:      clus,
		remote:    remote,
		phaseHist: buildPhaseHistograms(cfg.Metrics, cfg.Topo.Nodes()),
		custody:   make(map[int]*custodyRecord),
		spares:    make([][][]byte, cfg.Topo.Nodes()),
		lc:        lifecycle{rounds: make(map[*round]struct{})},

		restoreSlot: make(chan struct{}, 1),
	}
	if c.lay, err = newLayout(&cfg, plan, code); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.WatchdogFactor > 0 {
		c.wd = newWatchdog(c, cfg.WatchdogFactor)
	}
	return c, nil
}

// Close drains or cancels every in-flight round, then releases the encoder
// pool. The network and cluster are owned by the caller — but because the
// caller's next step is typically tearing the transport down, Close first
// cancels every registered round (save, restore and membership step alike)
// and waits for them to unwind, so no round is left mid-protocol on a dying
// network. It returns an error wrapping ErrSaveAborted when it had to throw
// away in-flight work; a round that ended cleanly — a save that committed
// before the cancellation landed included — is not an error. Close is
// idempotent.
func (c *Checkpointer) Close() error {
	c.lc.mu.Lock()
	if c.lc.closed {
		c.lc.mu.Unlock()
		return nil
	}
	c.lc.closed = true
	rounds := make([]*round, 0, len(c.lc.rounds))
	for r := range c.lc.rounds {
		rounds = append(rounds, r)
	}
	c.lc.mu.Unlock()

	// Cancel every round before waiting for any: a drain at its commit point
	// waits for running recoveries to release the commit lock.
	for _, r := range rounds {
		r.h.abort()
	}
	var saveAborted, loadAborted bool
	for _, r := range rounds {
		<-r.h.Done()
		if r.h.Err() != nil {
			saveAborted = saveAborted || r.kind != roundRestore
			loadAborted = loadAborted || r.kind == roundRestore
		}
	}
	var aborted []string
	if saveAborted {
		aborted = append(aborted, "save")
	}
	if loadAborted {
		aborted = append(aborted, "load")
	}
	c.wd.stop()
	c.pool.Close()
	if len(aborted) > 0 {
		return fmt.Errorf("core: close cancelled in-flight %v round(s): %w", aborted, ErrSaveAborted)
	}
	return nil
}

// scalarMulPooled computes dst = coef · src, or dst ^= coef · src with add,
// splitting the region across the checkpointer's CPU thread pool — the
// paper's thread-pool acceleration of encoding. Small regions fall back to
// the serial path to avoid dispatch overhead.
func (c *Checkpointer) scalarMulPooled(coef int, dst, src []byte, add bool) error {
	if coef == 0 || len(dst) < poolThreshold || c.pool.Workers() <= 1 {
		if add {
			return c.code.ScalarMulAdd(coef, dst, src)
		}
		return c.code.ScalarMulInto(coef, dst, src)
	}
	sched, err := c.code.ScalarSchedule(coef, add)
	if err != nil {
		return err
	}
	return c.pool.RunSchedule(sched, [][]byte{src}, [][]byte{dst})
}

// mulColumn runs a compiled coefficient column (erasure.Code.Column) over
// one source window: out[i] = coefs[i] · src for every i, in one pass over
// src. A window of at least poolThreshold splits across the thread pool.
// out's headers are the caller's to reuse: nothing here keeps them.
func (c *Checkpointer) mulColumn(col *bitmatrix.Schedule, out [][]byte, src []byte) error {
	if len(src) < poolThreshold || c.pool.Workers() <= 1 {
		return col.Execute([][]byte{src}, out)
	}
	return c.pool.RunSchedule(col, [][]byte{src}, out)
}

// store writes a copy of a blob into a node's host memory with a footer of
// CRC-32C sums, one per BufferSize window, so silent corruption is
// detectable when the blob is next read. For small blobs and buffers the
// caller goes on using; payload-sized producers build their bytes in a
// cluster.NewBlob and adopt it instead.
func (c *Checkpointer) store(node int, key string, blob []byte) error {
	return cluster.StoreWindows(c.clus, node, key, blob, c.cfg.BufferSize)
}

// fetch borrows a checksummed blob, verifying every window: the result is
// the stored payload itself and must not be written. Mismatches wrap
// cluster.ErrChecksum and are treated by recovery as erasures.
func (c *Checkpointer) fetch(node int, key string) ([]byte, error) {
	return cluster.ViewSummed(c.clus, node, key, c.cfg.BufferSize)
}

// Plan returns the compiled communication plan, fixed at construction.
func (c *Checkpointer) Plan() *placement.Plan { return c.lay.plan }

// Code returns the erasure code in use.
func (c *Checkpointer) Code() *erasure.Code { return c.code }

// Version returns the version of the most recent committed save (0 before
// the first). It is safe to poll while a SaveAsync round drains in the
// background: the version advances only once the new checkpoint passes the
// commit barrier.
func (c *Checkpointer) Version() int { return int(c.version.Load()) }

// SaveReport summarises one checkpointing round.
type SaveReport struct {
	// Version is the checkpoint version written.
	Version int
	// PacketBytes is the per-worker packet size after alignment padding.
	PacketBytes int
	// SmallBytes is the small-component volume step 2 broadcasts: every
	// worker's blob (a length prefix, the metadata, the tensor keys) once.
	SmallBytes int
	// RemotePersisted reports whether step 4 ran this round.
	RemotePersisted bool
	// Elapsed is the wall time of the functional round, snapshot through
	// commit (and remote persistence when it ran).
	Elapsed time.Duration
	// StallNs is the wall time the training loop was blocked on this
	// round: the whole round for the synchronous Save, but only the
	// snapshot stage (step 1, the DtoH offload into host staging buffers)
	// for SaveAsync — the paper's claim that ECCheck stalls training only
	// for the offload, as a measurement.
	StallNs time.Duration
	// OverlapNs is the drain wall time that overlapped resumed training:
	// serialize/encode/XOR/P2P/commit/persist running on background
	// goroutines after SaveAsync returned. Zero for the synchronous Save.
	// StallNs + OverlapNs == Elapsed.
	OverlapNs time.Duration
	// Phases breaks the round down by pipeline phase (see SavePhases for
	// the names). Each node goroutine's wall time is partitioned
	// exclusively into phases; Phases holds the per-phase mean across
	// nodes, plus the coordinator's commit (in "promote") and remote
	// persistence (in "persist"), so the values sum to approximately
	// Elapsed.
	Phases map[string]time.Duration
	// NodePhases holds each node's own phase partition, indexed by node.
	// Partitions are closed against the round's section wall: time a fast
	// node's finished chunk spent waiting for slower peers is charged to
	// that node's own "straggle" lane (see PhaseStraggle), so each
	// partition sums to the section wall rather than stopping at the
	// node's last delivery.
	NodePhases []map[string]time.Duration
	// StragglerNode is the node the commit barrier waited for — the one
	// with the largest own phase total (and hence a near-zero straggle
	// lane). -1 when the round had no per-node partitions.
	StragglerNode int
	// StragglerLag is how far StragglerNode ran behind the mean of all
	// nodes' phase totals: the wall time the round's commit barrier cost
	// beyond a perfectly balanced cluster.
	StragglerLag time.Duration
	// Postmortem is the flight-recorder event tail for a round that
	// ended in error (abort, kill, snapshot failure), capped at
	// flight.DefaultPostmortemEvents. Nil on success or when no flight
	// recorder is configured.
	Postmortem []flight.Event
}

// LoadReport summarises a recovery.
type LoadReport struct {
	// Version is the checkpoint version recovered.
	Version int
	// Workflow is "replacement" (all data chunks intact) or "decode" for a
	// full Load, "partial" or "partial-decode" for LoadPartial (the latter
	// when at least one requested packet had to be decoded through the
	// erasure code because its direct fetch failed).
	Workflow string
	// MissingChunks are the chunk indices that had to be restored.
	MissingChunks []int
	// CorruptedChunks are the chunk indices rebuilt because a stored blob
	// failed checksum verification — silent corruption handled exactly
	// like a machine failure.
	CorruptedChunks []int
	// CorruptBlobs counts host-memory blobs (segments, manifests, small
	// components) that failed checksum verification during the scan.
	CorruptBlobs int
	// Elapsed is the wall time of the functional recovery.
	Elapsed time.Duration
	// Phases breaks the recovery down by phase (see LoadPhases): the
	// coordinator's scan plus the per-phase mean across node goroutines.
	Phases map[string]time.Duration
	// BytesFetched is the checkpoint payload read from storage during the
	// restore: every checksummed host-memory blob (manifests, segments,
	// small components) plus every remote object the round fetched. The
	// lazy-restore story is told in this field — LoadPartial on a skewed
	// workload fetches strictly less than a full Load.
	BytesFetched int64
	// Budget echoes the configured restore-latency SLO (Config.LoadBudget)
	// the round was measured against; zero when no budget is set.
	Budget time.Duration
	// DeadlineExceeded reports that the round's wall time overran Budget.
	// The restore still completed — the budget is an SLO, not a hard
	// deadline — but the report carries the flight-recorder tail so the
	// overrun is diagnosable.
	DeadlineExceeded bool
	// Postmortem is the flight-recorder event tail for a recovery that
	// failed, overran its latency budget, or had to decode around erasures
	// (missing or corrupt chunks), capped at
	// flight.DefaultPostmortemEvents. Nil on a clean recovery or when no
	// flight recorder is configured.
	Postmortem []flight.Event
}

// Host-memory key layout.
func keySegment(chunk, seg int) string {
	return fmt.Sprintf("chunk/%d/seg/%d", chunk, seg)
}
func keyManifest() string { return "manifest" }

// stagePrefix namespaces the blobs of an in-flight save. A crash mid-save
// leaves only staged keys behind; the committed checkpoint under the final
// keys stays untouched and loadable.
const stagePrefix = "stage/"

func keyStaged(key string) string { return stagePrefix + key }

// commitStaged promotes every node's staged blobs to the final keys and
// removes the staging copies. It runs only after every node finished its
// round, so the previous checkpoint is overwritten exclusively by a
// complete new one. Commit is pure local host-memory work — no network —
// and a node that dies inside this window loses its whole memory anyway,
// which the erasure code absorbs like any machine failure.
// A node commits what it staged: a delta round stages neither the segments
// nor the own-packet caches it carries (see nodeDrain), and those blobs stay
// stored as they are. The segments and caches a commit does displace — no
// reader can still hold them: commitMu is held exclusively, under the save
// slot — join the node's spare stack, which thus never exceeds one version's
// payload blobs. Both have one shape, cluster.FramedLen(packetBytes,
// BufferSize).
func (c *Checkpointer) commitStaged() error {
	lay := c.lay
	keys := &lay.keys
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		// Rename staged blobs in key order (a node's key set ends in its span
		// segments and then the manifest): zero-copy and leaves no staging
		// keys behind. The small-component blobs come first and, like the
		// manifest, are staged every round; anything after them may be
		// carried.
		commit := keys.commit[node]
		lo, hi := lay.plan.RankRange(lay.plan.GroupOfNode(node))
		for i, key := range commit {
			staged := keys.staged[node][i]
			payload := i >= hi-lo && i < len(commit)-1 // a cache or a segment
			if payload && !c.clus.Has(node, staged) {
				continue
			}
			old, err := c.clus.Move(node, staged, key)
			if err != nil {
				return fmt.Errorf("core: node %d commit %q: %w", node, key, err)
			}
			if payload && old != nil {
				c.spareBlob(node, old)
			}
		}
	}
	return nil
}

// discardStaged removes every staged blob of an aborted save on all nodes
// that still have memory. Errors are ignored: a failed node's memory —
// staged blobs included — is already gone.
func (c *Checkpointer) discardStaged(keys *keyTable) {
	for node := 0; node < c.cfg.Topo.Nodes(); node++ {
		if !c.clus.Alive(node) {
			continue
		}
		for _, staged := range keys.staged[node] {
			_ = c.clus.Delete(node, staged)
		}
	}
}

// CorruptChunkByte flips one payload byte of the node's stored chunk
// (segment 0) — the fault-injection primitive for silent host-memory
// corruption. Recovery must detect the checksum mismatch and rebuild the
// chunk through the erasure code.
func (c *Checkpointer) CorruptChunkByte(node int) error {
	if node < 0 || node >= c.cfg.Topo.Nodes() {
		return fmt.Errorf("core: node %d out of range [0, %d)", node, c.cfg.Topo.Nodes())
	}
	key := keySegment(c.lay.plan.ChunkOfNode[node], 0)
	stored, err := c.clus.View(node, key)
	if err != nil {
		return fmt.Errorf("core: corrupt node %d: %w", node, err)
	}
	raw := bytes.Clone(stored) // a stored blob is never written
	raw[len(raw)/2] ^= 0x01
	return c.clus.Adopt(node, key, raw)
}

// remoteKeyPrefix starts every key of the remote tier's catalog.
const remoteKeyPrefix = "eccheck/v"

// remoteKey names one rank's serialized state dict of one persisted version
// in the remote tier.
func remoteKey(version, rank int) string {
	return fmt.Sprintf(remoteKeyPrefix+"%d/rank%d", version, rank)
}

// parseRemoteKey is remoteKey's inverse: it accepts exactly the keys
// remoteKey writes for a non-negative version and rank — no sign, padding
// or trailing bytes — so a stray object in the catalog names no version.
func parseRemoteKey(key string) (version, rank int, ok bool) {
	rest, ok := strings.CutPrefix(key, remoteKeyPrefix)
	if !ok {
		return 0, 0, false
	}
	v, r, ok := strings.Cut(rest, "/rank")
	if !ok {
		return 0, 0, false
	}
	if version, ok = parseDecimal(v); !ok {
		return 0, 0, false
	}
	if rank, ok = parseDecimal(r); !ok {
		return 0, 0, false
	}
	return version, rank, true
}

// parseDecimal parses a non-negative int written the way %d writes one.
func parseDecimal(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0 && strconv.Itoa(n) == s
}
