package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"eccheck"
	"eccheck/internal/obs"
)

// startDaemon boots a Daemon on an ephemeral loopback port and returns it
// with a client bound to it. The server is torn down with the test.
func startDaemon(t *testing.T, cfg Config) (*Daemon, *Client) {
	t.Helper()
	d := New(cfg)
	srv, err := obs.ServeMux("127.0.0.1:0", d.Mux())
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.Shutdown(ctx)
		_ = srv.Close()
	})
	return d, NewClient("http://" + srv.Addr())
}

// testSpec is a small, fast job shape shared by the API tests.
func testSpec(id, tenant string) JobSpec {
	return JobSpec{ID: id, Tenant: tenant, Scale: 32, BufferBytes: 128 << 10, DisableRemote: true}
}

// TestHTTPJobLifecycle drives one job through the full service loop over
// real HTTP: register → save → kill a node → load → status → delete, with
// byte-verified recovery.
func TestHTTPJobLifecycle(t *testing.T) {
	_, cli := startDaemon(t, Config{})
	ctx := context.Background()

	st, err := cli.Register(ctx, testSpec("alpha", "team"))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if st.Nodes != 4 || st.K != 2 || st.M != 2 {
		t.Fatalf("defaulted spec came back %d/%d/%d, want 4/2/2", st.Nodes, st.K, st.M)
	}
	if st.MemoryReservedBytes <= 0 {
		t.Fatalf("no host-memory reservation recorded")
	}

	save, err := cli.Save(ctx, "alpha", SaveRequest{Steps: 3})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if save.Report.Version != 1 || save.Job.CheckpointStep != 3 {
		t.Fatalf("save round: version %d step %d, want 1/3", save.Report.Version, save.Job.CheckpointStep)
	}

	if _, err := cli.Fail(ctx, "alpha", FailRequest{Node: 1}); err != nil {
		t.Fatalf("fail node: %v", err)
	}
	load, err := cli.Load(ctx, "alpha")
	if err != nil {
		t.Fatalf("load after failure: %v", err)
	}
	if load.VerifiedStep != 3 {
		t.Fatalf("recovered step %d, want 3", load.VerifiedStep)
	}
	if len(load.Report.MissingChunks) == 0 {
		t.Fatalf("load after a kill rebuilt nothing — the failure did not bite")
	}

	got, err := cli.Status(ctx, "alpha")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if got.Saves != 1 || got.Loads != 1 || got.Failures != 0 {
		t.Fatalf("counters %d/%d/%d, want 1 save, 1 load, 0 failures", got.Saves, got.Loads, got.Failures)
	}
	if got.LastLoad == nil || len(got.LastLoad.MissingChunks) == 0 {
		t.Fatalf("status does not carry the last load report")
	}

	if err := cli.Delete(ctx, "alpha"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cli.Status(ctx, "alpha"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("status after delete: %v, want ErrJobNotFound", err)
	}
}

// TestHTTPDoubleRegister pins the 409 + typed-code contract.
func TestHTTPDoubleRegister(t *testing.T) {
	_, cli := startDaemon(t, Config{})
	ctx := context.Background()
	if _, err := cli.Register(ctx, testSpec("dup", "team")); err != nil {
		t.Fatalf("first register: %v", err)
	}
	_, err := cli.Register(ctx, testSpec("dup", "team"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("second register: %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusConflict || apiErr.Code != "job-exists" {
		t.Fatalf("second register: http %d code %q, want 409 job-exists", apiErr.StatusCode, apiErr.Code)
	}
	if !errors.Is(err, ErrJobExists) {
		t.Fatalf("wire error does not unwrap to ErrJobExists: %v", err)
	}
}

// TestHTTPUnknownJob pins 404 on every per-job route.
func TestHTTPUnknownJob(t *testing.T) {
	_, cli := startDaemon(t, Config{})
	ctx := context.Background()
	checks := map[string]error{
		"save":   func() error { _, err := cli.Save(ctx, "ghost", SaveRequest{}); return err }(),
		"load":   func() error { _, err := cli.Load(ctx, "ghost"); return err }(),
		"status": func() error { _, err := cli.Status(ctx, "ghost"); return err }(),
		"fail":   func() error { _, err := cli.Fail(ctx, "ghost", FailRequest{Node: 0}); return err }(),
		"delete": cli.Delete(ctx, "ghost"),
	}
	for route, err := range checks {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("%s on unknown job: %v, want 404 *APIError", route, err)
		}
		if !errors.Is(err, ErrJobNotFound) {
			t.Errorf("%s error does not unwrap to ErrJobNotFound: %v", route, err)
		}
	}
}

// TestHTTPMemoryQuota rejects the registration that would break the
// tenant's host-memory ceiling with a 429 and the quota-memory code —
// and still admits another tenant.
func TestHTTPMemoryQuota(t *testing.T) {
	d, cli := startDaemon(t, Config{TenantMemoryBytes: 40 << 20})
	ctx := context.Background()
	if _, err := cli.Register(ctx, testSpec("a1", "greedy")); err != nil {
		t.Fatalf("first register: %v", err)
	}
	_, err := cli.Register(ctx, testSpec("a2", "greedy"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("over-quota register: %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Code != "quota-memory" {
		t.Fatalf("over-quota register: http %d code %q, want 429 quota-memory", apiErr.StatusCode, apiErr.Code)
	}
	if !errors.Is(err, ErrMemoryQuota) {
		t.Fatalf("wire error does not unwrap to ErrMemoryQuota: %v", err)
	}
	if got, ok := d.reg.Snapshot().Counter("eccheckd_quota_rejected_total",
		obs.L("tenant", "greedy"), obs.L("quota", "memory")); !ok || got != 1 {
		t.Fatalf("quota rejection not counted (got %d, ok=%v)", got, ok)
	}
	// Another tenant's ledger is untouched.
	if _, err := cli.Register(ctx, testSpec("b1", "frugal")); err != nil {
		t.Fatalf("other tenant blocked by greedy's quota: %v", err)
	}
	// Deleting the hog returns the reservation.
	if err := cli.Delete(ctx, "a1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cli.Register(ctx, testSpec("a3", "greedy")); err != nil {
		t.Fatalf("register after delete should fit again: %v", err)
	}
}

// TestHTTPBandwidthQuota rejects a remote-tier bandwidth over-ask with
// 429 quota-bandwidth.
func TestHTTPBandwidthQuota(t *testing.T) {
	_, cli := startDaemon(t, Config{TenantBandwidth: 700e6})
	ctx := context.Background()
	spec := testSpec("bw1", "team")
	spec.DisableRemote = false // reserve the default 625 MB/s
	if _, err := cli.Register(ctx, spec); err != nil {
		t.Fatalf("first register: %v", err)
	}
	spec2 := testSpec("bw2", "team")
	spec2.DisableRemote = false
	_, err := cli.Register(ctx, spec2)
	if !errors.Is(err, ErrBandwidthQuota) {
		t.Fatalf("over-quota register: %v, want ErrBandwidthQuota", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Code != "quota-bandwidth" {
		t.Fatalf("over-quota register: %v, want 429 quota-bandwidth", err)
	}
	// A remote-free job reserves no bandwidth and is admitted.
	if _, err := cli.Register(ctx, testSpec("bw3", "team")); err != nil {
		t.Fatalf("remote-free job rejected: %v", err)
	}
}

// TestHTTPSaveSlotContention makes two jobs fight for one save slot and
// asserts the serialization is real and observable: the slot is held by
// the test while both saves queue, both then complete, and the per-job
// metric labels record one grant and a non-trivial wait each.
func TestHTTPSaveSlotContention(t *testing.T) {
	d, cli := startDaemon(t, Config{MaxConcurrentSaves: 1})
	ctx := context.Background()
	for _, id := range []string{"left", "right"} {
		if _, err := cli.Register(ctx, testSpec(id, "team")); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}

	// Hold the only slot so both saves demonstrably queue.
	release, err := d.sched.Acquire(ctx, "test-holder")
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	var wg sync.WaitGroup
	results := make(map[string]*SaveResponse)
	var mu sync.Mutex
	for _, id := range []string{"left", "right"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := cli.Save(ctx, id, SaveRequest{})
			if err != nil {
				t.Errorf("save %s: %v", id, err)
				return
			}
			mu.Lock()
			results[id] = resp
			mu.Unlock()
		}(id)
	}
	waitQueued(t, d.sched, "left", 1)
	waitQueued(t, d.sched, "right", 1)
	release()
	wg.Wait()

	snap := d.reg.Snapshot()
	for _, id := range []string{"left", "right"} {
		if results[id] == nil || results[id].Report.Version != 1 {
			t.Fatalf("job %s did not complete its save round", id)
		}
		if results[id].SlotWait <= 0 {
			t.Errorf("job %s reports zero slot wait despite a held slot", id)
		}
		if got, ok := snap.Counter("eccheckd_save_slot_grants_total", obs.L("job", id)); !ok || got != 1 {
			t.Errorf("job %s slot grants = %d (ok=%v), want 1", id, got, ok)
		}
		if h, ok := snap.Histogram("eccheckd_save_slot_wait_ns", obs.L("job", id)); !ok || h.Count != 1 {
			t.Errorf("job %s slot wait histogram missing", id)
		}
	}
}

// TestHTTPDrainRejectsNewWork pins the graceful-shutdown contract at the
// API: after Shutdown begins, /healthz turns 503 and new work is rejected
// with the draining code.
func TestHTTPDrainRejectsNewWork(t *testing.T) {
	d, cli := startDaemon(t, Config{})
	ctx := context.Background()
	if _, err := cli.Register(ctx, testSpec("j", "team")); err != nil {
		t.Fatalf("register: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if cli.Healthy(ctx) {
		t.Fatalf("healthz still 200 while draining")
	}
	_, err := cli.Register(ctx, testSpec("late", "team"))
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("register while draining: %v, want ErrDraining", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register while draining: %v, want 503", err)
	}
}

// TestStatusJSONShape guards the wire format the curl walkthrough in
// EXPERIMENTS.md documents: the status body round-trips through a plain
// map with the documented keys present.
func TestStatusJSONShape(t *testing.T) {
	_, cli := startDaemon(t, Config{})
	ctx := context.Background()
	if _, err := cli.Register(ctx, testSpec("shape", "team")); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := cli.Save(ctx, "shape", SaveRequest{}); err != nil {
		t.Fatalf("save: %v", err)
	}
	st, err := cli.Status(ctx, "shape")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{`"id"`, `"tenant"`, `"version"`, `"checkpoint_step"`,
		`"fault_tolerance"`, `"memory_reserved_bytes"`, `"last_save"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("status JSON lost key %s: %s", key, raw)
		}
	}
}

// TestHTTPGroupedJob hosts a job whose fleet is two (2+2) code groups — 8
// nodes, selected by nothing but the node count — through save, one machine
// lost in each group, a byte-verified load, and the health margin back at m
// once the load has repaired both.
func TestHTTPGroupedJob(t *testing.T) {
	d, cli := startDaemon(t, Config{})
	ctx := context.Background()

	spec := testSpec("wide", "team")
	spec.Nodes, spec.GPUsPerNode, spec.K, spec.M = 8, 1, 2, 2
	st, err := cli.Register(ctx, spec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if st.Nodes != 8 || st.K != 2 || st.M != 2 || st.FaultTolerance != 2 {
		t.Fatalf("registered %d nodes %d+%d tolerance %d, want 8 nodes 2+2 tolerance 2", st.Nodes, st.K, st.M, st.FaultTolerance)
	}
	// The reservation is the coded footprint, exactly: every group expands
	// its share of the payload by (k+m)/k.
	j, err := d.lookup("wide")
	if err != nil {
		t.Fatal(err)
	}
	var payload int64
	for _, sd := range j.dicts {
		payload += int64(sd.TensorBytes())
	}
	if st.MemoryReservedBytes != payload*2 {
		t.Fatalf("reserved %d bytes for %d bytes of payload, want (k+m)/k = 2x", st.MemoryReservedBytes, payload)
	}
	spec.ID, spec.Nodes = "ragged", 6
	if _, err := cli.Register(ctx, spec); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("6 nodes with k+m = 4: %v, want ErrBadRequest", err)
	}

	if _, err := cli.Save(ctx, "wide", SaveRequest{Steps: 2}); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, node := range []int{1, 6} { // one machine in each group, replaced empty
		if _, err := cli.Fail(ctx, "wide", FailRequest{Node: node}); err != nil {
			t.Fatalf("fail node %d: %v", node, err)
		}
	}
	hr, err := cli.Health(ctx, "wide")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if hr.Margin != 1 || hr.Level != eccheck.HealthDegraded {
		t.Fatalf("one machine lost in each group: %s margin %d, want degraded with margin m-1 = 1", hr.Level, hr.Margin)
	}
	load, err := cli.Load(ctx, "wide")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if load.VerifiedStep != 2 || len(load.Report.MissingChunks) != 2 {
		t.Fatalf("load verified step %d and rebuilt %v, want step 2 and one chunk in each group", load.VerifiedStep, load.Report.MissingChunks)
	}
	if hr, err = cli.Health(ctx, "wide"); err != nil || hr.Margin != 2 || hr.Level != eccheck.HealthOK {
		t.Fatalf("health after the load's repair: %+v, %v; want ok with margin m = 2", hr, err)
	}
}
