package daemon

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"eccheck"
	"eccheck/internal/obs"
)

// TestHealthTransitions walks one job's protection level from fresh
// registration to total loss — OK → Degraded → AtRisk → Unprotected,
// margin = m − failures at every step — and asserts three surfaces agree:
// the /v1/jobs/{id}/health report, the /readyz gate (which must flip
// exactly when the job reaches AtRisk), and the /v1/events SSE stream,
// which must deliver each transition exactly once to a subscriber that
// attached mid-stream (before the job existed).
func TestHealthTransitions(t *testing.T) {
	d, cli := startDaemon(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Attach the SSE subscriber first and wait for the daemon to see it,
	// so every event the walk produces is observed, not raced.
	type healthEv struct {
		level, prev eccheck.HealthLevel
		margin      int
		announce    bool
	}
	events := make(chan healthEv, 32)
	var wg sync.WaitGroup
	wg.Add(1)
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go func() {
		defer wg.Done()
		err := cli.Watch(watchCtx, "walk", func(ev eccheck.HealthEvent) bool {
			if ev.Kind != "health" {
				return true
			}
			events <- healthEv{
				level: ev.Level, prev: ev.PrevLevel, margin: ev.Margin,
				announce: ev.Level == ev.PrevLevel,
			}
			return true
		})
		if err != nil {
			t.Errorf("watch: %v", err)
		}
	}()
	waitFor(t, "SSE subscriber attached", func() bool { return d.bus.Subscribers() == 1 })

	next := func(what string) healthEv {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(30 * time.Second):
			t.Fatalf("no %s event on the stream", what)
			return healthEv{}
		}
	}

	// A fresh fleet has no committed checkpoint: unprotected, and the
	// stream announces it.
	if _, err := cli.Register(ctx, testSpec("walk", "walk")); err != nil {
		t.Fatalf("register: %v", err)
	}
	if ev := next("announcement"); !ev.announce || ev.level != eccheck.HealthUnprotected {
		t.Fatalf("announcement = %+v, want unprotected announce", ev)
	}
	rz, err := cli.Readyz(ctx)
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	if rz.Ready {
		t.Fatalf("daemon ready while its only job has no committed checkpoint")
	}

	// Commit a checkpoint: full margin m, level OK, daemon ready.
	if _, err := cli.Save(ctx, "walk", SaveRequest{Steps: 1}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if ev := next("OK"); ev.announce || ev.level != eccheck.HealthOK || ev.prev != eccheck.HealthUnprotected || ev.margin != 2 {
		t.Fatalf("first transition = %+v, want unprotected->ok margin 2", ev)
	}

	// Kill nodes one by one without replacement: margin = m − failures.
	walk := []struct {
		node   int
		level  eccheck.HealthLevel
		margin int
		ready  bool
	}{
		{node: 0, level: eccheck.HealthDegraded, margin: 1, ready: true},
		{node: 1, level: eccheck.HealthAtRisk, margin: 0, ready: false},
		{node: 2, level: eccheck.HealthUnprotected, margin: -1, ready: false},
	}
	noReplace := false
	prev := eccheck.HealthOK
	for _, step := range walk {
		if _, err := cli.Fail(ctx, "walk", FailRequest{Node: step.node, Replace: &noReplace}); err != nil {
			t.Fatalf("fail node %d: %v", step.node, err)
		}
		ev := next(step.level.String())
		if ev.announce || ev.level != step.level || ev.prev != prev || ev.margin != step.margin {
			t.Fatalf("after killing node %d: event %+v, want %s<-%s margin %d",
				step.node, ev, step.level, prev, step.margin)
		}
		prev = step.level

		rep, err := cli.Health(ctx, "walk")
		if err != nil {
			t.Fatalf("health after node %d: %v", step.node, err)
		}
		if rep.Level != step.level || rep.Margin != step.margin {
			t.Fatalf("report after node %d = level %s margin %d, want %s %d",
				step.node, rep.Level, rep.Margin, step.level, step.margin)
		}
		if len(rep.Reasons) == 0 {
			t.Fatalf("report after node %d carries no reasons", step.node)
		}

		rz, err := cli.Readyz(ctx)
		if err != nil {
			t.Fatalf("readyz after node %d: %v", step.node, err)
		}
		if rz.Ready != step.ready {
			t.Fatalf("readyz after node %d = %v, want %v (worst %s)", step.node, rz.Ready, step.ready, rz.Worst)
		}
		if !step.ready && rz.Jobs["walk"] != step.level {
			t.Fatalf("readyz names walk as %s, want %s", rz.Jobs["walk"], step.level)
		}
	}

	// Exactly once: the stream must now be silent — no duplicated or
	// spurious health transitions beyond the 5 consumed above.
	select {
	case ev := <-events:
		t.Fatalf("unexpected extra health event %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}

	stopWatch()
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouteCollisions pins the daemon's observability routes against
// each other: the new /readyz and /v1/events must not shadow — or be
// shadowed by — /healthz, /metrics, /trace or /debug/pprof on one mux.
// Each route must answer with its own distinctive content.
func TestRouteCollisions(t *testing.T) {
	_, cli := startDaemon(t, Config{})
	base := cli.base
	hc := &http.Client{Timeout: 30 * time.Second}

	cases := []struct {
		path        string
		status      int
		contentType string // prefix match, "" skips
		body        string // substring match, "" skips
	}{
		{path: "/healthz", status: 200, body: "ok"},
		{path: "/readyz", status: 200, contentType: "application/json", body: `"ready": true`},
		{path: "/metrics", status: 200, contentType: "text/plain", body: "# HELP"},
		{path: "/metrics.json", status: 200, contentType: "application/json"},
		{path: "/trace", status: 200},
		{path: "/debug/pprof/", status: 200, body: "profile"},
		{path: "/debug/pprof/cmdline", status: 200},
		{path: "/v1/jobs", status: 200, contentType: "application/json", body: `"jobs"`},
		// SSE stream: headers and the opening comment prove the route
		// resolved to the stream handler and not a JSON route.
		{path: "/v1/events", status: 200, contentType: "text/event-stream", body: "eccheckd event stream"},
		{path: "/v1/events?job=nope", status: 200, contentType: "text/event-stream"},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+tc.path, nil)
		if err != nil {
			cancel()
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if tc.contentType != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), tc.contentType) {
			t.Errorf("GET %s content-type %q, want prefix %q", tc.path, resp.Header.Get("Content-Type"), tc.contentType)
		}
		if tc.body != "" {
			// Streams never end on their own; read at most 4 KiB.
			raw := make([]byte, 4096)
			n, _ := io.ReadAtLeast(resp.Body, raw, 1)
			if !strings.Contains(string(raw[:n]), tc.body) {
				t.Errorf("GET %s body %q missing %q", tc.path, raw[:n], tc.body)
			}
		}
		resp.Body.Close()
		cancel()
	}
}

// TestMetricHelpCoverage is the help-coverage gate: it drives a full
// library round (save, kill, replace, load, partial load) and a full
// daemon job lifecycle, then requires every metric family either side
// emitted to resolve to a hand-curated # HELP entry. The suffix-generated
// fallback deliberately does not count — a new family without
// documentation fails here, not in a dashboard review.
func TestMetricHelpCoverage(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Library side: a real fleet, remote tier enabled so the remote and
	// prefetch families appear too.
	sys, err := eccheck.Initialize(eccheck.Config{
		Nodes: 4, GPUsPerNode: 2, TPDegree: 2, PPStages: 4, K: 2, M: 2,
		BufferSize: 128 << 10, FlightEvents: 256,
	})
	if err != nil {
		t.Fatalf("initialize: %v", err)
	}
	defer sys.Close()
	opt := eccheck.NewBuildOptions()
	opt.Scale = 32
	opt.Seed = 7
	dicts, err := eccheck.BuildClusterStateDicts(eccheck.ModelZoo()[0], sys.Topology(), opt)
	if err != nil {
		t.Fatalf("build dicts: %v", err)
	}
	if _, err := sys.Save(ctx, dicts); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := sys.FailNode(1); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := sys.ReplaceNode(1); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if _, _, err := sys.Load(ctx); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, _, err := sys.LoadPartial(ctx, []int{0}); err != nil {
		t.Fatalf("partial load: %v", err)
	}

	// Daemon side: register, save, fail, load, delete — the eccheckd_*
	// families.
	d, cli := startDaemon(t, Config{})
	if _, err := cli.Register(ctx, testSpec("helpcov", "helpcov")); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := cli.Save(ctx, "helpcov", SaveRequest{Steps: 1}); err != nil {
		t.Fatalf("daemon save: %v", err)
	}
	if _, err := cli.Fail(ctx, "helpcov", FailRequest{Node: 1}); err != nil {
		t.Fatalf("daemon fail: %v", err)
	}
	if _, err := cli.Load(ctx, "helpcov"); err != nil {
		t.Fatalf("daemon load: %v", err)
	}
	if err := cli.Delete(ctx, "helpcov"); err != nil {
		t.Fatalf("daemon delete: %v", err)
	}

	families := map[string]bool{}
	for _, snap := range []obs.Snapshot{sys.Metrics(), d.reg.Snapshot()} {
		for _, c := range snap.Counters {
			families[c.Name] = true
		}
		for _, h := range snap.Histograms {
			families[h.Name] = true
		}
	}
	if len(families) < 20 {
		t.Fatalf("only %d metric families emitted — the round did not exercise the system", len(families))
	}
	// The dynamic <op>_phase_ns families must have been exercised: they
	// are the ones a suffix fallback would silently paper over.
	for _, dyn := range []string{"save_phase_ns", "load_phase_ns"} {
		if !families[dyn] {
			t.Fatalf("dynamic family %s not emitted by the round", dyn)
		}
	}
	for name := range families {
		if _, ok := obs.CuratedHelp(name); !ok {
			t.Errorf("metric family %q has no curated # HELP entry (add it to internal/obs/help.go)", name)
		}
	}
}
