package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"testing"
)

// boundSpecs returns, for each registration bound, a spec at the bound and
// one a step past it.
func boundSpecs() (at, past map[string]JobSpec) {
	spec := func(id string, edit func(*JobSpec)) JobSpec {
		s := testSpec(id, "bounds")
		edit(&s)
		return s
	}
	at = map[string]JobSpec{
		"nodes":         spec("nodes", func(s *JobSpec) { s.Nodes, s.GPUsPerNode = maxNodes, 1 }),
		"gpus_per_node": spec("gpus", func(s *JobSpec) { s.GPUsPerNode, s.Scale = maxGPUsPerNode, 25 }), // hidden 1600/25 = 64 splits 8 ways
		"scale":         spec("scale", func(s *JobSpec) { s.Scale = minScale }),
		"flight_events": spec("flight", func(s *JobSpec) { s.FlightEvents = maxFlightEvents }),
	}
	past = map[string]JobSpec{
		"nodes":         spec("nodes", func(s *JobSpec) { s.Nodes, s.GPUsPerNode = maxNodes+4, 1 }), // still a multiple of k+m
		"gpus_per_node": spec("gpus", func(s *JobSpec) { s.GPUsPerNode = maxGPUsPerNode + 1 }),
		"scale":         spec("scale", func(s *JobSpec) { s.Scale = minScale - 1 }),
		"flight_events": spec("flight", func(s *JobSpec) { s.FlightEvents = maxFlightEvents + 1 }),
	}
	return at, past
}

// TestRegisterBounds: a spec one past a registration bound is a 400 that
// builds nothing — far fewer allocations than the smallest job's fleet
// takes — and a spec at the bound registers.
func TestRegisterBounds(t *testing.T) {
	d, cli := startDaemon(t, Config{})
	ctx := context.Background()
	at, past := boundSpecs()
	for name, spec := range past {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = d.Register(spec) })
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s one past its bound: %v, want ErrBadRequest", name, err)
		}
		if allocs > 50 {
			t.Errorf("%s one past its bound: Register made %.0f allocations, want a rejection that builds nothing", name, allocs)
		}
		var api *APIError
		if _, err := cli.Register(ctx, spec); !errors.As(err, &api) || api.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s one past its bound over HTTP: %v, want a 400", name, err)
		}
	}
	if st := d.List(); len(st.Jobs) != 0 {
		t.Fatalf("rejected specs left %d jobs", len(st.Jobs))
	}
	for name, spec := range at {
		if _, err := cli.Register(ctx, spec); err != nil {
			t.Fatalf("%s at its bound: %v", name, err)
		}
		if err := cli.Delete(ctx, spec.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzJobSpec feeds arbitrary registration bodies through the path Register
// takes before it builds anything: decode, defaults, validation. No input
// may panic; every rejection is a 400; every accepted spec is inside the
// registration bounds and survives a JSON round trip unchanged.
func FuzzJobSpec(f *testing.F) {
	at, past := boundSpecs()
	seeds := []JobSpec{testSpec("alpha", "team"), {ID: "wide", Nodes: 8, GPUsPerNode: 1, K: 2, M: 2, Scale: 32}}
	for _, m := range []map[string]JobSpec{at, past} {
		for _, s := range m {
			seeds = append(seeds, s)
		}
	}
	for _, s := range seeds {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":"x","k":9223372036854775807,"m":9223372036854775807}`))
	f.Add([]byte(`{"id":"x","nodes":4.5,"remote_bandwidth":-1e308,"watchdog_factor":-0}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		err := decodeBody(&http.Request{Body: io.NopCloser(bytes.NewReader(body))}, &spec)
		if err == nil {
			spec = spec.withDefaults(4096, 0)
			err = spec.validate()
		}
		if err != nil {
			if status, _ := errorCode(err); !errors.Is(err, ErrBadRequest) || status != http.StatusBadRequest {
				t.Fatalf("rejection %v maps to %d, want a 400 wrapping ErrBadRequest", err, status)
			}
			return
		}
		if spec.Nodes < 1 || spec.Nodes > maxNodes || spec.K < 1 || spec.M < 1 || spec.Nodes%(spec.K+spec.M) != 0 ||
			spec.GPUsPerNode < 1 || spec.GPUsPerNode > maxGPUsPerNode || spec.Scale < minScale || spec.FlightEvents > maxFlightEvents {
			t.Fatalf("accepted a spec outside the bounds: %+v", spec)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(raw, &back); err != nil || back != spec {
			t.Fatalf("JSON round trip: %+v -> %s -> %+v (%v)", spec, raw, back, err)
		}
	})
}

// TestSaveStepsBound: a save asking for more steps than maxSaveSteps, or for
// fewer than zero, is a 400 that leaves the job's step and version where they
// were — the overflowing one used to wrap the step negative and wedge every
// later save — and a save at the bound commits.
func TestSaveStepsBound(t *testing.T) {
	_, cli := startDaemon(t, Config{})
	ctx := context.Background()
	if _, err := cli.Register(ctx, testSpec("steps", "bounds")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Save(ctx, "steps", SaveRequest{}); err != nil {
		t.Fatal(err)
	}
	before, err := cli.Status(ctx, "steps")
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []int{math.MaxInt, maxSaveSteps + 1, -1} {
		var api *APIError
		if _, err := cli.Save(ctx, "steps", SaveRequest{Steps: steps}); !errors.As(err, &api) ||
			api.StatusCode != http.StatusBadRequest || api.Code != "bad-request" {
			t.Fatalf("save of %d steps: %v, want a 400 bad-request", steps, err)
		}
		st, err := cli.Status(ctx, "steps")
		if err != nil {
			t.Fatal(err)
		}
		if st.Step != before.Step || st.Version != before.Version {
			t.Fatalf("rejected save of %d steps moved the job from step %d version %d to step %d version %d",
				steps, before.Step, before.Version, st.Step, st.Version)
		}
	}
	save, err := cli.Save(ctx, "steps", SaveRequest{Steps: maxSaveSteps})
	if err != nil {
		t.Fatalf("save at the bound: %v", err)
	}
	if save.Job.Step != before.Step+maxSaveSteps || save.Job.Version != before.Version+1 {
		t.Fatalf("save at the bound left step %d version %d, want %d and %d",
			save.Job.Step, save.Job.Version, before.Step+maxSaveSteps, before.Version+1)
	}
}

// FuzzRequestBodies feeds arbitrary bytes through what the save, load and
// fail routes run before they touch a job: decode, then the request's
// validation against the largest job shape registration accepts. No input
// may panic; every rejection is a 400; every accepted request is in range.
func FuzzRequestBodies(f *testing.F) {
	shape := JobSpec{ID: "largest", Nodes: maxNodes, GPUsPerNode: maxGPUsPerNode, K: maxNodes / 2, M: maxNodes / 2, Scale: minScale}
	if err := shape.validate(); err != nil {
		f.Fatal(err)
	}
	world := shape.Nodes * shape.GPUsPerNode
	near := append([]byte(`{"ranks":[`), bytes.Repeat([]byte("0,"), (1<<20-16)/2)...)
	near = append(near, "0]}"...)
	for _, seed := range []string{``, `null`, `{"steps":9223372036854775807}`, `{"steps":-1}`, `{"steps":1025}`,
		`{"node":-1}`, `{"node":64,"replace":false}`, `{"ranks":[]}`, `{"ranks":[3,3,511]}`, `{"ranks":[512]}`, string(near)} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var save SaveRequest
		if accepted(t, body, &save, shape) && (save.Steps < 0 || save.Steps > maxSaveSteps) {
			t.Fatalf("accepted a save of %d steps", save.Steps)
		}
		var load LoadRequest
		if accepted(t, body, &load, shape) {
			for _, rank := range load.Ranks {
				if rank < 0 || rank >= world {
					t.Fatalf("accepted a load of rank %d in a world of %d", rank, world)
				}
			}
		}
		var fail FailRequest
		if accepted(t, body, &fail, shape) && (fail.Node < 0 || fail.Node >= shape.Nodes) {
			t.Fatalf("accepted a failure of node %d in a fleet of %d", fail.Node, shape.Nodes)
		}
	})
}

// accepted decodes body into req and validates it against shape, as the
// route does, and reports whether both passed; a rejection must be a 400
// wrapping ErrBadRequest.
func accepted(t *testing.T, body []byte, req interface{ validate(JobSpec) error }, shape JobSpec) bool {
	t.Helper()
	err := decodeBody(&http.Request{Body: io.NopCloser(bytes.NewReader(body))}, req)
	if err == nil {
		err = req.validate(shape)
	}
	if err == nil {
		return true
	}
	if status, _ := errorCode(err); !errors.Is(err, ErrBadRequest) || status != http.StatusBadRequest {
		t.Fatalf("rejection %v maps to %d, want a 400 wrapping ErrBadRequest", err, status)
	}
	return false
}

// TestSaveStampsRanksWithoutTensors: a fleet with more pipeline stages than
// the model has layers gives the ranks of the surplus stages no tensors. A
// save still advances and stamps every rank, and a load verifies them all;
// the save used to panic with a division by zero on the first such rank,
// which the largest shape registration accepts (64 × 8) has 128 of.
func TestSaveStampsRanksWithoutTensors(t *testing.T) {
	d, cli := startDaemon(t, Config{})
	ctx := context.Background()
	spec := JobSpec{ID: "deep", Nodes: 56, GPUsPerNode: 1, K: 4, M: 4, Scale: 32, DisableRemote: true}
	if _, err := cli.Register(ctx, spec); err != nil {
		t.Fatal(err)
	}
	j, err := d.lookup("deep")
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, sd := range j.dicts {
		if len(sd.TensorEntries()) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("every rank of the 56-stage job holds tensors: the shape no longer covers the case")
	}
	if _, err := cli.Save(ctx, "deep", SaveRequest{Steps: 2}); err != nil {
		t.Fatalf("save with %d ranks without tensors: %v", empty, err)
	}
	if _, err := cli.Fail(ctx, "deep", FailRequest{Node: 3}); err != nil {
		t.Fatal(err)
	}
	load, err := cli.Load(ctx, "deep")
	if err != nil {
		t.Fatal(err)
	}
	if load.VerifiedStep != 2 {
		t.Fatalf("load verified step %d, want 2", load.VerifiedStep)
	}
}
