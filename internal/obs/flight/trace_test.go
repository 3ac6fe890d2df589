package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// traceRecorder builds a recorder holding one representative failed
// save round touching every event type.
func traceRecorder() *Recorder {
	r := New(256)
	at := func(off time.Duration) time.Time { return r.epoch.Add(off) }

	r.append(Event{TS: 0, Type: EvRoundBegin, Op: "save", Node: -1, Round: 3})
	r.Phase("save", 0, 3, "encode", at(10*time.Microsecond), 400*time.Microsecond)
	r.Phase("save", 1, 3, "encode", at(15*time.Microsecond), 380*time.Microsecond)
	r.Send(0, 1, "xr/0/1", 4096, at(420*time.Microsecond), 30*time.Microsecond, nil)
	r.Recv(1, 0, "xr/0/1", 4096, at(430*time.Microsecond), 25*time.Microsecond, nil)
	r.Send(0, 1, "xr/0/1", 4096, at(460*time.Microsecond), 30*time.Microsecond, nil)
	r.Recv(1, 0, "xr/0/1", 4096, at(470*time.Microsecond), 25*time.Microsecond, nil)
	// Unmatched send (peer died): must not emit a dangling flow start.
	r.Send(0, 2, "pp/3/0", 4096, at(500*time.Microsecond), 10*time.Microsecond, errors.New("peer gone"))
	r.Chaos("kill", 2, 0, "pp/3/2")
	r.Corruption(2, "ec/3/seg/2")
	r.PoolDiscard(4096)
	r.Remote("put", "remote/ec/3/manifest", 512, at(600*time.Microsecond), 80*time.Microsecond)
	r.Phase("save", -1, 3, "promote", at(700*time.Microsecond), 40*time.Microsecond)
	r.RoundEnd("save", 3, errors.New("save aborted: peer gone"))
	return r
}

// TestWriteTraceValid is the golden validity test from the acceptance
// criteria: the exporter's output must parse as Chrome trace_event
// JSON, keep ts monotonic within every (pid, tid) track, and pair
// every flow start with exactly one flow finish.
func TestWriteTraceValid(t *testing.T) {
	r := traceRecorder()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	type track struct{ pid, tid float64 }
	lastTS := map[track]float64{}
	flowStarts := map[float64]int{}
	flowEnds := map[float64]int{}
	sawMeta, sawSpan, sawInstant := false, false, false

	for _, te := range parsed.TraceEvents {
		ph, _ := te["ph"].(string)
		pid, _ := te["pid"].(float64)
		tid, _ := te["tid"].(float64)
		ts, _ := te["ts"].(float64)
		switch ph {
		case "M":
			sawMeta = true
			continue
		case "X":
			sawSpan = true
			if dur, ok := te["dur"].(float64); !ok || dur <= 0 {
				t.Fatalf("complete event without positive dur: %v", te)
			}
		case "i":
			sawInstant = true
		case "s":
			flowStarts[te["id"].(float64)]++
		case "f":
			flowEnds[te["id"].(float64)]++
			if bp, _ := te["bp"].(string); bp != "e" {
				t.Fatalf("flow finish must bind to enclosing slice (bp=e): %v", te)
			}
		default:
			t.Fatalf("unexpected phase %q in %v", ph, te)
		}
		tr := track{pid: pid, tid: tid}
		if prev, ok := lastTS[tr]; ok && ts < prev {
			t.Fatalf("ts not monotonic on track pid=%v tid=%v: %v after %v", pid, tid, ts, prev)
		}
		lastTS[tr] = ts
	}

	if !sawMeta || !sawSpan || !sawInstant {
		t.Fatalf("expected metadata, span and instant events (meta=%v span=%v instant=%v)",
			sawMeta, sawSpan, sawInstant)
	}
	if len(flowStarts) == 0 {
		t.Fatal("expected at least one flow pair for the matched P2P transfers")
	}
	for id, n := range flowStarts {
		if n != 1 || flowEnds[id] != 1 {
			t.Fatalf("flow id %v not paired 1:1 (starts=%d ends=%d)", id, n, flowEnds[id])
		}
	}
	for id, n := range flowEnds {
		if flowStarts[id] != 1 {
			t.Fatalf("flow finish id %v without start (ends=%d)", id, n)
		}
	}
}

func TestWriteTraceProcessNames(t *testing.T) {
	r := traceRecorder()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	for _, te := range parsed.TraceEvents {
		if te.Phase == "M" && te.Name == "process_name" {
			names[te.PID], _ = te.Args["name"].(string)
		}
	}
	if names[0] != "cluster" {
		t.Fatalf("pid 0 should be the cluster track, got %q", names[0])
	}
	if names[1] != "node 0" || names[3] != "node 2" {
		t.Fatalf("node pids misnamed: %v", names)
	}
}

func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace must still be valid JSON: %v", err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("missing traceEvents key")
	}
}
