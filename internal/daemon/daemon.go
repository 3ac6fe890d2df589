package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"eccheck"
	"eccheck/internal/obs"
	"eccheck/internal/obs/health"
)

// Config parameterises a Daemon.
type Config struct {
	// MaxConcurrentSaves bounds checkpoint rounds in flight fleet-wide
	// (the admission-control slot count). Default 1: saves from different
	// jobs strictly serialize.
	MaxConcurrentSaves int
	// TenantMemoryBytes is the per-tenant host-memory quota charged by
	// job registrations (coded checkpoint footprint). 0 selects the
	// default (2 GiB); negative disables the check.
	TenantMemoryBytes int64
	// TenantBandwidth is the per-tenant remote-tier bandwidth quota in
	// bytes/second. 0 selects the default (1.25 GB/s — room for two
	// default jobs); negative disables the check.
	TenantBandwidth float64
	// DefaultFlightEvents sizes job flight-recorder rings when the spec
	// leaves FlightEvents zero. 0 selects the default (4096).
	DefaultFlightEvents int
	// WatchdogFactor arms every job's stuck-round watchdog when the spec
	// leaves WatchdogFactor zero (see eccheck.Config.WatchdogFactor). 0
	// leaves the watchdog off by default.
	WatchdogFactor float64
	// Logger receives the daemon's structured admission logs and, scoped
	// with a per-job attribute, each job engine's round/membership/chaos
	// logs. Nil disables logging.
	Logger *slog.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrentSaves == 0 {
		c.MaxConcurrentSaves = 1
	}
	switch {
	case c.TenantMemoryBytes == 0:
		c.TenantMemoryBytes = 2 << 30
	case c.TenantMemoryBytes < 0:
		c.TenantMemoryBytes = 0
	}
	switch {
	case c.TenantBandwidth == 0:
		c.TenantBandwidth = 1.25e9
	case c.TenantBandwidth < 0:
		c.TenantBandwidth = 0
	}
	if c.DefaultFlightEvents == 0 {
		c.DefaultFlightEvents = 4096
	}
	return c
}

// Daemon is the eccheckd control plane: the job registry, the admission
// controller, the quota ledger and the metric registry behind the HTTP
// API. Build one with New, serve its Mux, and Shutdown on SIGTERM.
type Daemon struct {
	cfg   Config
	reg   *obs.Registry
	sched *slotScheduler
	quo   *quotaLedger
	log   *slog.Logger // nil disables logging
	// bus fans every job's health/round/stuck events into the /v1/events
	// SSE streams.
	bus *health.Bus

	mu       sync.Mutex
	jobs     map[string]*job
	creating map[string]bool
	draining bool
	// ops tracks in-flight checkpoint-affecting requests so Shutdown can
	// drain them.
	ops sync.WaitGroup
}

// New builds a Daemon. Serve its Mux with obs.ServeMux (or any
// http.Server) and call Shutdown to drain it.
func New(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		sched:    newSlotScheduler(cfg.MaxConcurrentSaves),
		quo:      newQuotaLedger(cfg.TenantMemoryBytes, cfg.TenantBandwidth),
		log:      cfg.Logger,
		bus:      health.NewBus(),
		jobs:     make(map[string]*job),
		creating: make(map[string]bool),
	}
	d.bus.OnDrop(func() { d.reg.Counter("eccheckd_events_dropped_total").Inc() })
	return d
}

// beginOp admits one checkpoint-affecting request, rejecting it when the
// daemon is draining. The returned func must be called when the request
// finishes.
func (d *Daemon) beginOp() (func(), error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return nil, ErrDraining
	}
	d.ops.Add(1)
	return d.ops.Done, nil
}

// lookup resolves a job id.
func (d *Daemon) lookup(id string) (*job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return j, nil
}

// Register creates a job from spec: defaults, validation, quota
// reservation, fleet construction, event wiring, registry insertion.
func (d *Daemon) Register(spec JobSpec) (*JobStatus, error) {
	done, err := d.beginOp()
	if err != nil {
		return nil, err
	}
	defer done()
	spec = spec.withDefaults(d.cfg.DefaultFlightEvents, d.cfg.WatchdogFactor)
	if err := spec.validate(); err != nil {
		return nil, err
	}

	// Claim the id before the (slow) fleet build so two concurrent
	// registrations of the same id cannot both succeed.
	d.mu.Lock()
	if _, ok := d.jobs[spec.ID]; ok || d.creating[spec.ID] {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrJobExists, spec.ID)
	}
	d.creating[spec.ID] = true
	d.mu.Unlock()
	unclaim := func() {
		d.mu.Lock()
		delete(d.creating, spec.ID)
		d.mu.Unlock()
	}

	var jobLog *slog.Logger
	if d.log != nil {
		jobLog = d.log.With("job", spec.ID)
	}
	j, err := newJob(spec, jobLog)
	if err != nil {
		unclaim()
		return nil, err
	}
	if err := d.quo.reserve(spec.Tenant, j.memReserved, j.bwReserved); err != nil {
		unclaim()
		_ = j.sys.Close()
		quota := "memory"
		if errors.Is(err, ErrBandwidthQuota) {
			quota = "bandwidth"
		}
		d.reg.Counter("eccheckd_quota_rejected_total",
			obs.L("tenant", spec.Tenant), obs.L("quota", quota)).Inc()
		return nil, err
	}

	// Fan the job's protection timeline into the daemon's event bus: the
	// sink stamps each event with the job id so per-job SSE filters work.
	// Its round events are also the job's round accounting — every round
	// the System runs, the HTTP-driven ones and any background drain, lands
	// in the daemon registry under the job's label, which is what makes
	// admission serialization observable at /metrics.
	tr := j.sys.HealthTracker()
	tr.SetSink(func(ev health.Event) {
		ev.Job = spec.ID
		if ev.Kind == health.KindRound {
			labels := []obs.Label{obs.L("job", ev.Job), obs.L("op", ev.Op)}
			if ev.State == "start" {
				d.reg.Counter("eccheckd_job_rounds_started_total", labels...).Inc()
			} else {
				d.reg.Counter("eccheckd_job_rounds_finished_total", labels...).Inc()
				if ev.Err != "" {
					d.reg.Counter("eccheckd_job_round_failures_total", labels...).Inc()
				}
			}
		}
		d.bus.Publish(ev)
	})
	// The tracker's initial recompute (Unprotected, "no committed
	// checkpoint") fired inside Initialize, before the sink existed —
	// announce the job's starting level explicitly so stream subscribers
	// see every job at least once. PrevLevel == Level marks it as an
	// announcement rather than a transition.
	rep := j.sys.Health()
	d.bus.Publish(health.Event{
		Time: time.Now(), Kind: health.KindHealth, Job: spec.ID,
		Level: rep.Level, PrevLevel: rep.Level, Margin: rep.Margin, Reasons: rep.Reasons,
	})

	d.mu.Lock()
	delete(d.creating, spec.ID)
	d.jobs[spec.ID] = j
	d.mu.Unlock()
	d.reg.Counter("eccheckd_jobs_registered_total", obs.L("tenant", spec.Tenant)).Inc()
	if d.log != nil {
		d.log.Info("job registered", "job", spec.ID, "tenant", spec.Tenant,
			"nodes", spec.Nodes, "k", spec.K, "m", spec.M)
	}
	st := j.status()
	return &st, nil
}

// Save runs one admission-controlled checkpoint round for the job: queue
// for the fleet-wide save slot (FIFO within the job, round-robin across
// jobs), then advance the simulated training and save.
func (d *Daemon) Save(ctx context.Context, id string, req SaveRequest) (*SaveResponse, error) {
	done, err := d.beginOp()
	if err != nil {
		return nil, err
	}
	defer done()
	j, err := d.lookup(id)
	if err != nil {
		return nil, err
	}

	waitStart := time.Now()
	release, err := d.sched.Acquire(ctx, id)
	if err != nil {
		d.reg.Counter("eccheckd_save_slot_rejected_total", obs.L("job", id)).Inc()
		return nil, err
	}
	wait := time.Since(waitStart)
	d.reg.Counter("eccheckd_save_slot_grants_total", obs.L("job", id)).Inc()
	d.reg.Histogram("eccheckd_save_slot_wait_ns", obs.L("job", id)).ObserveDuration(wait)
	holdStart := time.Now()
	defer func() {
		d.reg.Histogram("eccheckd_save_slot_hold_ns", obs.L("job", id)).ObserveDuration(time.Since(holdStart))
		release()
	}()

	rep, err := j.save(ctx, req.Steps)
	if err != nil {
		if d.log != nil {
			d.log.Error("save failed", "job", id, "err", err)
		}
		return nil, err
	}
	if d.log != nil {
		d.log.Info("save committed", "job", id, "version", rep.Version, "slot_wait", wait)
	}
	return &SaveResponse{Job: j.status(), Report: rep, SlotWait: wait}, nil
}

// Load recovers the job's latest checkpoint and byte-verifies the
// recovered training position. Loads are latency-critical and bypass the
// save-slot queue (the engine itself orders a load after any in-flight
// save drain on the same job). A request with Ranks set performs a lazy
// partial restore of just those ranks instead of a full recovery.
func (d *Daemon) Load(ctx context.Context, id string, req LoadRequest) (*LoadResponse, error) {
	done, err := d.beginOp()
	if err != nil {
		return nil, err
	}
	defer done()
	j, err := d.lookup(id)
	if err != nil {
		return nil, err
	}
	var (
		rep      *eccheck.LoadReport
		verified int
	)
	if len(req.Ranks) > 0 {
		rep, verified, err = j.loadPartial(ctx, req.Ranks)
	} else {
		rep, verified, err = j.load(ctx)
	}
	if err != nil {
		if d.log != nil {
			d.log.Error("load failed", "job", id, "err", err)
		}
		return nil, err
	}
	if d.log != nil {
		d.log.Info("load verified", "job", id, "version", rep.Version, "step", verified)
	}
	return &LoadResponse{Job: j.status(), Report: rep, VerifiedStep: verified}, nil
}

// Fail injects a machine failure into the job's fleet.
func (d *Daemon) Fail(id string, req FailRequest) (*JobStatus, error) {
	done, err := d.beginOp()
	if err != nil {
		return nil, err
	}
	defer done()
	j, err := d.lookup(id)
	if err != nil {
		return nil, err
	}
	replace := true
	if req.Replace != nil {
		replace = *req.Replace
	}
	if err := j.fail(req.Node, replace); err != nil {
		return nil, err
	}
	d.reg.Counter("eccheckd_node_failures_injected_total", obs.L("job", id)).Inc()
	if d.log != nil {
		d.log.Warn("node failure injected", "job", id, "node", req.Node, "replace", replace)
	}
	st := j.status()
	return &st, nil
}

// Status snapshots one job.
func (d *Daemon) Status(id string) (*JobStatus, error) {
	j, err := d.lookup(id)
	if err != nil {
		return nil, err
	}
	st := j.status()
	return &st, nil
}

// List snapshots every registered job, ordered by id.
func (d *Daemon) List() ListResponse {
	d.mu.Lock()
	jobs := make([]*job, 0, len(d.jobs))
	for _, j := range d.jobs {
		jobs = append(jobs, j)
	}
	d.mu.Unlock()
	out := ListResponse{Jobs: make([]JobStatus, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.status())
	}
	sort.Slice(out.Jobs, func(a, b int) bool { return out.Jobs[a].ID < out.Jobs[b].ID })
	return out
}

// Delete unregisters a job: it leaves the registry immediately (no new
// requests can reach it), its fleet is torn down — cancelling any
// in-flight round — and its quota reservations return to the tenant.
func (d *Daemon) Delete(id string) error {
	done, err := d.beginOp()
	if err != nil {
		return err
	}
	defer done()
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	delete(d.jobs, id)
	d.mu.Unlock()
	errClose := j.close()
	d.quo.release(j.spec.Tenant, j.memReserved, j.bwReserved)
	d.reg.Counter("eccheckd_jobs_deleted_total", obs.L("tenant", j.spec.Tenant)).Inc()
	if d.log != nil {
		d.log.Info("job deleted", "job", id, "tenant", j.spec.Tenant)
	}
	return errClose
}

// Health returns one job's current protection score.
func (d *Daemon) Health(id string) (*eccheck.HealthReport, error) {
	j, err := d.lookup(id)
	if err != nil {
		return nil, err
	}
	rep := j.sys.Health()
	return &rep, nil
}

// Readyz scores the whole fleet's protection: the daemon is ready when
// it is not draining and no job is AtRisk or worse. Distinct from
// /healthz liveness — a live daemon whose only job is one failure away
// from data loss is not ready to take more traffic.
func (d *Daemon) Readyz() ReadyzResponse {
	resp := ReadyzResponse{Draining: d.Draining()}
	d.mu.Lock()
	jobs := make([]*job, 0, len(d.jobs))
	for _, j := range d.jobs {
		jobs = append(jobs, j)
	}
	d.mu.Unlock()
	for _, j := range jobs {
		lvl := j.sys.Health().Level
		if lvl > resp.Worst {
			resp.Worst = lvl
		}
		if lvl != eccheck.HealthOK {
			if resp.Jobs == nil {
				resp.Jobs = make(map[string]eccheck.HealthLevel)
			}
			resp.Jobs[j.spec.ID] = lvl
		}
	}
	resp.Ready = !resp.Draining && resp.Worst < eccheck.HealthAtRisk
	return resp
}

// Draining reports whether Shutdown has begun.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Shutdown drains the daemon gracefully: new work is rejected with
// ErrDraining, in-flight requests — including queued save-slot waiters —
// are given until ctx expires to finish, then every job's fleet is torn
// down (which cancels whatever is still running). A clean drain returns
// nil; an expired ctx surfaces as its error after the forced teardown.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	d.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		d.ops.Wait()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = fmt.Errorf("daemon: drain cut short: %w", ctx.Err())
	}

	// No new acquisitions can arrive (beginOp rejects them); fail any
	// stragglers still queued so their requests unwind.
	d.sched.Close()

	d.mu.Lock()
	jobs := make([]*job, 0, len(d.jobs))
	for _, j := range d.jobs {
		jobs = append(jobs, j)
	}
	d.jobs = make(map[string]*job)
	d.mu.Unlock()
	for _, j := range jobs {
		// A job whose round was cancelled mid-drain reports it via Close;
		// the checkpoint state is still consistent, so a forced teardown
		// only propagates the ctx error already recorded.
		if err := j.close(); err != nil && drainErr == nil {
			drainErr = err
		}
		d.quo.release(j.spec.Tenant, j.memReserved, j.bwReserved)
	}
	// Closing the bus last lets teardown events drain to subscribers and
	// unblocks every open /v1/events stream (their channels close).
	d.bus.Close()
	if d.log != nil {
		d.log.Info("daemon drained", "err", drainErr)
	}
	return drainErr
}
