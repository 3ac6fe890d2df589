package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
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
