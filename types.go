package eccheck

import (
	"io"

	"eccheck/internal/chaos"
	"eccheck/internal/core"
	"eccheck/internal/erasure"
	"eccheck/internal/model"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/parallel"
	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
)

// The core data types are defined in internal packages and re-exported
// here as aliases, so the root package is the entire public surface.

// StateDict is an ordered checkpoint dictionary of non-tensor metadata and
// named tensors; it is what each worker checkpoints.
type StateDict = statedict.StateDict

// NewStateDict returns an empty state dict.
func NewStateDict() *StateDict { return statedict.New() }

// Value is a non-tensor metadata value.
type Value = statedict.Value

// Metadata value constructors.
var (
	// IntValue wraps an integer (iteration counters and the like).
	IntValue = statedict.Int
	// FloatValue wraps a float (learning rates and the like).
	FloatValue = statedict.Float
	// StringValue wraps a string (versions, names).
	StringValue = statedict.String
	// BoolValue wraps a boolean flag.
	BoolValue = statedict.Bool
	// BytesValue wraps an opaque blob (RNG state).
	BytesValue = statedict.Bytes
)

// Tensor is a dense, contiguously backed tensor.
type Tensor = tensor.Tensor

// DType is a tensor element type.
type DType = tensor.DType

// Supported tensor element types.
const (
	Float32  = tensor.Float32
	Float16  = tensor.Float16
	BFloat16 = tensor.BFloat16
	Int64    = tensor.Int64
	Int32    = tensor.Int32
	UInt8    = tensor.UInt8
)

// NewTensor allocates a zero-filled tensor.
func NewTensor(dtype DType, shape ...int) (*Tensor, error) {
	return tensor.New(dtype, shape...)
}

// TensorFromBytes wraps existing storage as a tensor (zero copy).
func TensorFromBytes(dtype DType, shape []int, data []byte) (*Tensor, error) {
	return tensor.FromBytes(dtype, shape, data)
}

// Topology describes the training cluster's hybrid-parallel layout.
type Topology = parallel.Topology

// NewTopology constructs a topology of nodes × gpusPerNode workers with
// the given tensor-parallel degree and pipeline stages.
func NewTopology(nodes, gpusPerNode, tpDegree, ppStages int) (*Topology, error) {
	return parallel.NewTopology(nodes, gpusPerNode, tpDegree, ppStages)
}

// ModelConfig describes a transformer model (see ModelZoo for the paper's
// Table I configurations).
type ModelConfig = model.Config

// ModelZoo returns the paper's Table I model configurations.
func ModelZoo() []ModelConfig { return model.TableI() }

// BuildOptions controls synthetic model-state construction.
type BuildOptions = model.BuildOptions

// NewBuildOptions returns defaults (full scale, optimizer state included).
func NewBuildOptions() BuildOptions { return model.NewBuildOptions() }

// BuildWorkerStateDict constructs one worker's sharded training state for
// a model under a topology — the synthetic stand-in for a live Megatron-LM
// worker's state_dict.
func BuildWorkerStateDict(cfg ModelConfig, topo *Topology, rank int, opt BuildOptions) (*StateDict, error) {
	return model.BuildWorkerStateDict(cfg, topo, rank, opt)
}

// BuildClusterStateDicts builds one state dict per world rank.
func BuildClusterStateDicts(cfg ModelConfig, topo *Topology, opt BuildOptions) ([]*StateDict, error) {
	return model.BuildClusterStateDicts(cfg, topo, opt)
}

// ChaosPlan describes the faults to inject into the transport: link
// latency and jitter, probabilistic send drops and errors, and scheduled
// node kills. A non-zero Seed makes the injection deterministic.
type ChaosPlan = chaos.Plan

// ChaosKill schedules one node crash within a ChaosPlan.
type ChaosKill = chaos.Kill

// ChaosStats counts the faults a chaos network has injected so far.
type ChaosStats = chaos.Stats

// ErrChaosKilled is returned by transport operations on a chaos-killed
// node (test with errors.Is).
var ErrChaosKilled = chaos.ErrKilled

// ChaosPreemption schedules a spot-style preemption notice within a
// ChaosPlan: after the node performs AfterSends transport sends, the
// notice fires (see System.OnPreemptionNotice) and a kill lands Notice
// later unless the node is revived first.
type ChaosPreemption = chaos.Preemption

// DrainReport describes the outcome of a graceful leave (RemoveNode /
// PreemptNode): whether the doomed node's checkpoint blobs reached their
// custodian before the kill, and what moved.
type DrainReport = core.DrainReport

// JoinReport describes the outcome of AddNode: whether the slot's blobs
// were restored from custody or its chunk was rebuilt in place through the
// erasure code (Rebuilt) — either way FaultTolerance is m when AddNode
// returns — and what moved.
type JoinReport = core.JoinReport

// Codec is the underlying systematic Cauchy Reed-Solomon code, exposed for
// applications that want to erasure-code arbitrary buffers.
type Codec = erasure.Code

// NewCodec constructs a (k, m) Cauchy Reed-Solomon code: k data chunks,
// m parity chunks, any k of k+m reconstruct.
func NewCodec(k, m int) (*Codec, error) { return erasure.New(k, m) }

// Snapshot is a point-in-time copy of all metrics a System has recorded.
// Render it with WriteText (Prometheus exposition format) or WriteJSON, or
// query single series with the Counter and Histogram lookup methods.
type Snapshot = obs.Snapshot

// MetricLabel is one key/value dimension of a metric series.
type MetricLabel = obs.Label

// Label constructs a MetricLabel for Snapshot lookups, e.g.
// snap.Histogram("save_phase_ns", Label("phase", "encode"), Label("node", "0")).
var Label = obs.L

// FlightRecorder is the bounded in-memory ring of protocol events a
// System records when Config.FlightEvents is positive: round begin/end,
// phase spans, per-peer transfers with byte counts, chaos injections and
// corruption-as-erasure recoveries. Obtain it with System.FlightRecorder.
type FlightRecorder = flight.Recorder

// FlightEvent is one recorded timeline event. Failed rounds carry their
// last events as SaveReport.Postmortem / LoadReport.Postmortem.
type FlightEvent = flight.Event

// FlightEventType discriminates FlightEvent kinds (round, phase, send,
// recv, chaos, corruption, ...).
type FlightEventType = flight.EventType

// WriteFlightTrace renders recorded events as Chrome trace_event JSON
// (the format Perfetto and chrome://tracing load). System.WriteTrace is
// the common entry point; this function renders an explicit event slice,
// e.g. a report's postmortem tail.
func WriteFlightTrace(w io.Writer, events []FlightEvent) error {
	return flight.WriteTrace(w, events)
}

// DebugServer is the live debug HTTP server started by System.ServeDebug,
// exposing /metrics, /trace and /debug/pprof.
type DebugServer = obs.DebugServer

// SaveHandle tracks an asynchronous save round from the moment SaveAsync
// returned (snapshot complete, training may resume) until its background
// drain commits or aborts. Wait blocks for the report; Done/Err poll
// without blocking; Stall reports the blocking portion.
type SaveHandle = core.SaveHandle

// Lifecycle errors (test with errors.Is).
var (
	// ErrSaveInFlight is returned by Save and SaveIncremental when another
	// save round is already running; SaveAsync waits instead.
	ErrSaveInFlight = core.ErrSaveInFlight
	// ErrClosed is returned by rounds started after Close.
	ErrClosed = core.ErrClosed
	// ErrSaveAborted marks work that Close cancelled mid-flight; Close
	// returns it (wrapped) and the aborted round's error chain carries it.
	ErrSaveAborted = core.ErrSaveAborted
)

// SavePhases lists the save-round phase names in pipeline order: offload,
// serialize, encode, xor, stage, p2p, barrier, promote, persist. Use it to
// render SaveReport.Phases as a stable-order table. "offload" (plus
// "serialize") is the blocking portion SaveAsync stalls training for;
// "stage" is drain-side local chunk staging memory work.
func SavePhases() []string { return core.SavePhases() }

// LoadPhases lists the recovery phase names in protocol order: scan,
// fetch, rebuild, smallsync, redistribute.
func LoadPhases() []string { return core.LoadPhases() }
