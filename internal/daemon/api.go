package daemon

import (
	"fmt"
	"time"

	"eccheck"
)

// JobSpec is the POST /v1/jobs registration body: the fleet shape, the
// erasure-code parameters and the simulated workload of one training job.
// Zero fields take the documented defaults, so `{"id":"a","tenant":"t"}`
// is a complete registration.
type JobSpec struct {
	// ID names the job; it keys every /v1/jobs/{id} route. Required.
	ID string `json:"id"`
	// Tenant is the quota-accounting principal the job belongs to.
	// Defaults to "default".
	Tenant string `json:"tenant,omitempty"`
	// Nodes is the machine count (default 4, at most 64): K+M, or a
	// multiple of it for a grouped job — groups are contiguous ranges of K+M
	// nodes, each an independent (K, M) code inside the same round.
	Nodes int `json:"nodes,omitempty"`
	// GPUsPerNode is the worker count per machine (default 2, at most 8).
	GPUsPerNode int `json:"gpus_per_node,omitempty"`
	// K and M are the erasure-code parameters (default 2+2). The job
	// tolerates any M concurrent machine failures in each group.
	K int `json:"k,omitempty"`
	M int `json:"m,omitempty"`
	// BufferBytes is the streaming window size (default 256 KiB — the
	// daemon runs scaled-down models, so the library's 64 MB default
	// would collapse every save to one window).
	BufferBytes int `json:"buffer_bytes,omitempty"`
	// Scale divides the model's hidden size and vocabulary (default 32:
	// megabyte-sized shards; at least 16). The scaled hidden size must stay
	// divisible by GPUsPerNode.
	Scale int `json:"scale,omitempty"`
	// FlightEvents sizes the job's flight-recorder ring (default 4096, at
	// most 65536; negative disables recording).
	FlightEvents int `json:"flight_events,omitempty"`
	// RemoteBandwidth is the job's remote-tier bandwidth reservation in
	// bytes/second (default 625 MB/s, the paper's 5 Gbps). It is charged
	// against the tenant's bandwidth quota.
	RemoteBandwidth float64 `json:"remote_bandwidth,omitempty"`
	// DisableRemote turns off the job's remote persistence tier; the job
	// then reserves no tenant bandwidth.
	DisableRemote bool `json:"disable_remote,omitempty"`
	// WatchdogFactor arms the stuck-round watchdog: a round phase running
	// longer than factor × the phase's rolling p99 is flagged while still
	// live. Zero inherits the daemon's -watchdog-factor default; negative
	// disables the watchdog for this job.
	WatchdogFactor float64 `json:"watchdog_factor,omitempty"`
}

// withDefaults fills unset JobSpec fields.
func (s JobSpec) withDefaults(defaultFlightEvents int, defaultWatchdog float64) JobSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.GPUsPerNode == 0 {
		s.GPUsPerNode = 2
	}
	if s.K == 0 && s.M == 0 {
		s.K, s.M = 2, 2
	}
	if s.BufferBytes == 0 {
		s.BufferBytes = 256 << 10
	}
	if s.Scale == 0 {
		s.Scale = 32
	}
	if s.FlightEvents == 0 {
		s.FlightEvents = defaultFlightEvents
	}
	if s.FlightEvents < 0 {
		s.FlightEvents = 0
	}
	if s.WatchdogFactor == 0 {
		s.WatchdogFactor = defaultWatchdog
	}
	if s.WatchdogFactor < 0 {
		s.WatchdogFactor = 0
	}
	if s.RemoteBandwidth == 0 {
		s.RemoteBandwidth = 5e9 / 8
	}
	if s.DisableRemote {
		s.RemoteBandwidth = 0
	}
	return s
}

// Registration bounds. Initialize resolves n² per-(node, peer) transport
// counters and a job's state dicts grow as 1/Scale², so an unbounded spec
// could pin seconds of CPU and gigabytes of heap before the quota check
// runs; validate rejects one outside these bounds before anything is built.
const (
	maxNodes        = 64
	maxGPUsPerNode  = 8
	minScale        = 16 // the largest model a job may build: ≈ 70 MB of state dicts
	maxFlightEvents = 1 << 16
)

// validate rejects spec shapes Initialize would also reject, and specs
// outside the registration bounds, early and with a 400 instead of a 500.
func (s JobSpec) validate() error {
	switch {
	case s.ID == "":
		return fmt.Errorf("%w: job id is required", ErrBadRequest)
	case s.Nodes <= 0 || s.Nodes > maxNodes:
		return fmt.Errorf("%w: nodes must be in [1, %d], got %d", ErrBadRequest, maxNodes, s.Nodes)
	case s.K <= 0 || s.M <= 0 || s.K > s.Nodes || s.M > s.Nodes:
		return fmt.Errorf("%w: k and m must be in [1, nodes] (got k=%d m=%d)", ErrBadRequest, s.K, s.M)
	case s.Nodes%(s.K+s.M) != 0:
		return fmt.Errorf("%w: nodes (%d) must be a positive multiple of k+m (%d+%d): groups are contiguous ranges of k+m nodes", ErrBadRequest, s.Nodes, s.K, s.M)
	case s.GPUsPerNode <= 0 || s.GPUsPerNode > maxGPUsPerNode:
		return fmt.Errorf("%w: gpus_per_node must be in [1, %d], got %d", ErrBadRequest, maxGPUsPerNode, s.GPUsPerNode)
	case s.Scale < minScale:
		return fmt.Errorf("%w: scale must be at least %d, got %d", ErrBadRequest, minScale, s.Scale)
	case s.FlightEvents > maxFlightEvents:
		return fmt.Errorf("%w: flight_events must be at most %d, got %d", ErrBadRequest, maxFlightEvents, s.FlightEvents)
	}
	return nil
}

// JobStatus is the GET /v1/jobs/{id} body: the job's registration, its
// simulated-training position, round counters, and the last save/load
// reports (including flight-recorder postmortems on failed rounds).
type JobStatus struct {
	// ID and Tenant echo the registration.
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Nodes, K and M echo the fleet shape.
	Nodes int `json:"nodes"`
	K     int `json:"k"`
	M     int `json:"m"`
	// Step is the job's simulated training iteration; CheckpointStep is
	// the iteration captured by the last committed checkpoint.
	Step           int `json:"step"`
	CheckpointStep int `json:"checkpoint_step"`
	// Version is the latest committed checkpoint version.
	Version int `json:"version"`
	// FaultTolerance is the number of additional machine failures the job
	// survives right now.
	FaultTolerance int `json:"fault_tolerance"`
	// MemoryReservedBytes is the host-memory reservation charged against
	// the tenant quota; RemoteBandwidth the bandwidth reservation.
	MemoryReservedBytes int64   `json:"memory_reserved_bytes"`
	RemoteBandwidth     float64 `json:"remote_bandwidth"`
	// Saves, Loads and Failures count completed rounds and failed ones.
	Saves    int64 `json:"saves"`
	Loads    int64 `json:"loads"`
	Failures int64 `json:"failures"`
	// InFlight is "" when the job is idle, else the operation currently
	// holding the job ("save", "load", "fail", "delete").
	InFlight string `json:"in_flight,omitempty"`
	// LastError is the most recent round failure, "" when none.
	LastError string `json:"last_error,omitempty"`
	// LastSave and LastLoad are the most recent round reports; failed
	// rounds carry their flight-recorder postmortem tail inside.
	LastSave *eccheck.SaveReport `json:"last_save,omitempty"`
	LastLoad *eccheck.LoadReport `json:"last_load,omitempty"`
	// Health is the job's live protection score: redundancy margin of the
	// latest committed checkpoint, staleness, rolling success rates, and
	// the collapsed ok/degraded/at-risk/unprotected level with reasons.
	Health *eccheck.HealthReport `json:"health,omitempty"`
}

// SaveRequest is the POST /v1/jobs/{id}/save body.
type SaveRequest struct {
	// Steps is how many simulated training iterations to advance before
	// checkpointing (default 1; 0 also means 1 so an empty body works), at
	// most maxSaveSteps.
	Steps int `json:"steps,omitempty"`
}

// maxSaveSteps bounds SaveRequest.Steps. A save advances every rank's state
// one step at a time while it holds the job and the fleet-wide save slot, so
// the bound caps how long one request can make every other job's save wait.
const maxSaveSteps = 1 << 10

// validate rejects a save request outside its bounds, before the save
// touches the job or queues for the slot.
func (r SaveRequest) validate(JobSpec) error {
	if r.Steps < 0 || r.Steps > maxSaveSteps {
		return fmt.Errorf("%w: steps must be in [0, %d], got %d", ErrBadRequest, maxSaveSteps, r.Steps)
	}
	return nil
}

// SaveResponse is the save route's body: the committed round report plus
// the admission delay the round paid for the fleet-wide save slot.
type SaveResponse struct {
	// Job is the job's status after the round.
	Job JobStatus `json:"job"`
	// Report is the committed round's report.
	Report *eccheck.SaveReport `json:"report"`
	// SlotWait is how long the round queued for the fleet-wide save slot
	// before starting, in nanoseconds — the admission-control delay.
	SlotWait time.Duration `json:"slot_wait_ns"`
}

// LoadRequest is the POST /v1/jobs/{id}/load body. An empty body (or
// empty Ranks) recovers every worker from the latest committed version.
type LoadRequest struct {
	// Ranks, when non-empty, requests a lazy partial restore: only the
	// listed world ranks are recovered (the serving-failover fast path;
	// see System.LoadPartial). Fault tolerance is not restored by a
	// partial load.
	Ranks []int `json:"ranks,omitempty"`
}

// validate rejects a partial load naming a rank outside the job's world,
// before the load touches the job. A repeated rank is restored once.
func (r LoadRequest) validate(spec JobSpec) error {
	world := spec.Nodes * spec.GPUsPerNode
	for _, rank := range r.Ranks {
		if rank < 0 || rank >= world {
			return fmt.Errorf("%w: rank %d out of range [0,%d)", ErrBadRequest, rank, world)
		}
	}
	return nil
}

// LoadResponse is the load route's body.
type LoadResponse struct {
	// Job is the job's status after the recovery.
	Job JobStatus `json:"job"`
	// Report is the recovery report (workflow, rebuilt chunks, phases,
	// bytes fetched, and the latency-budget verdict when one is set).
	Report *eccheck.LoadReport `json:"report"`
	// VerifiedStep is the training iteration recovered from checkpoint
	// metadata, byte-verified against the job's checkpoint position. For
	// a partial load only the requested ranks are verified.
	VerifiedStep int `json:"verified_step"`
}

// FailRequest is the POST /v1/jobs/{id}/fail body: a chaos-style machine
// failure injected into the job's fleet.
type FailRequest struct {
	// Node is the machine to kill. Its volatile host memory — checkpoint
	// chunk included — is destroyed.
	Node int `json:"node"`
	// Replace, default true, immediately refills the slot with a fresh
	// empty machine so the next load can rebuild the lost chunk through
	// the erasure code. Set false to leave the slot dead.
	Replace *bool `json:"replace,omitempty"`
}

// validate rejects a failure aimed at a machine outside the job's fleet,
// before the failure touches the job.
func (r FailRequest) validate(spec JobSpec) error {
	if r.Node < 0 || r.Node >= spec.Nodes {
		return fmt.Errorf("%w: node %d out of range [0,%d)", ErrBadRequest, r.Node, spec.Nodes)
	}
	return nil
}

// ListResponse is the GET /v1/jobs body.
type ListResponse struct {
	// Jobs holds every registered job's status, ordered by id.
	Jobs []JobStatus `json:"jobs"`
}

// ReadyzResponse is the GET /readyz body: fleet-wide protection
// readiness. The daemon is ready only while it is not draining and no
// registered job is at-risk or worse — a load balancer should stop
// placing new jobs on a daemon whose fleet is one failure from data
// loss, even though the process itself is live (/healthz stays 200).
type ReadyzResponse struct {
	// Ready is the gate: not draining and Worst below at-risk.
	Ready bool `json:"ready"`
	// Draining reports a shutdown in progress.
	Draining bool `json:"draining,omitempty"`
	// Worst is the highest (worst) health level across registered jobs;
	// "ok" when the daemon has no jobs.
	Worst eccheck.HealthLevel `json:"worst"`
	// Jobs lists only the jobs that are not ok, keyed by job id.
	Jobs map[string]eccheck.HealthLevel `json:"jobs,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx /v1 response
// carries.
type ErrorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the stable machine-readable code ("job-exists",
	// "quota-memory", ...; see errorCode).
	Code string `json:"code"`
}
