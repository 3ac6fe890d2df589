package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export. The mapping is:
//
//   - pid   = Node+1 (pid 0 is the cluster-scoped track, Node == -1)
//   - tid   = one lane per event kind within the process: "rounds",
//     one lane per phase name, "p2p", "chaos", "corruption", "bufpool",
//     "remote", "membership" and "buffers"
//   - events with a duration become "X" complete events; the rest
//     become "i" instants
//   - each matched EvSend/EvRecv pair for the same (from, to, tag)
//     stream becomes an "s"/"f" flow pair, drawn by Perfetto as an
//     arrow between the two transfer spans
//
// Timestamps are microseconds from the recorder epoch.

// traceEvent is one entry of the Chrome trace_event array. Only the
// fields this exporter uses are declared.
type traceEvent struct {
	Name      string         `json:"name"`
	Phase     string         `json:"ph"`
	TS        float64        `json:"ts"`
	Dur       float64        `json:"dur,omitempty"`
	PID       int            `json:"pid"`
	TID       int            `json:"tid"`
	ID        int            `json:"id,omitempty"`
	Scope     string         `json:"s,omitempty"`
	BindPoint string         `json:"bp,omitempty"`
	Args      map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func usec(d int64) float64 { return float64(d) / 1e3 }

// laneFor maps an event to its thread-lane name within its process.
func laneFor(e Event) string {
	switch e.Type {
	case EvRoundBegin, EvRoundEnd:
		return "rounds"
	case EvPhase:
		return e.Phase
	case EvSend, EvRecv:
		return "p2p"
	case EvChaos:
		return "chaos"
	case EvCorruption:
		return "corruption"
	case EvPoolDiscard:
		return "bufpool"
	case EvRemote:
		return "remote"
	case EvMembership:
		return "membership"
	case EvBuffer:
		return "buffers"
	default:
		return "events"
	}
}

// nameFor maps an event to the span/instant label shown in the viewer.
func nameFor(e Event) string {
	switch e.Type {
	case EvRoundBegin:
		return fmt.Sprintf("%s v%d begin", e.Op, e.Round)
	case EvRoundEnd:
		if e.Err != "" {
			return fmt.Sprintf("%s v%d FAILED", e.Op, e.Round)
		}
		return fmt.Sprintf("%s v%d end", e.Op, e.Round)
	case EvPhase:
		return e.Phase
	case EvSend:
		return fmt.Sprintf("send %s -> %d", e.Tag, e.Peer)
	case EvRecv:
		return fmt.Sprintf("recv %s <- %d", e.Tag, e.Peer)
	case EvChaos:
		return "chaos:" + e.Op
	case EvCorruption:
		return "corrupt " + e.Tag
	case EvPoolDiscard:
		return "pool discard"
	case EvRemote:
		return e.Op + " " + e.Tag
	case EvMembership:
		return "member:" + e.Op
	case EvBuffer:
		return fmt.Sprintf("buf %d", e.Peer)
	default:
		return e.Type.String()
	}
}

func argsFor(e Event) map[string]any {
	args := map[string]any{"seq": e.Seq}
	if e.Bytes != 0 {
		args["bytes"] = e.Bytes
	}
	if e.Tag != "" {
		args["tag"] = e.Tag
	}
	if e.Err != "" {
		args["err"] = e.Err
	}
	if e.Round != 0 {
		args["round"] = e.Round
	}
	return args
}

// flowKey identifies one ordered transfer stream between two ranks.
type flowKey struct {
	from, to int
	tag      string
}

// pairFlows matches sends to receives in sequence order per
// (from, to, tag) stream and returns, per event index, the flow id it
// participates in (0 = none). Only fully matched pairs receive ids, so
// every "s" emitted has exactly one "f".
func pairFlows(events []Event) map[int]int {
	type half struct{ idx int }
	sends := map[flowKey][]half{}
	recvs := map[flowKey][]half{}
	for i, e := range events {
		switch e.Type {
		case EvSend:
			if e.Err == "" {
				k := flowKey{from: e.Node, to: e.Peer, tag: e.Tag}
				sends[k] = append(sends[k], half{idx: i})
			}
		case EvRecv:
			if e.Err == "" {
				k := flowKey{from: e.Peer, to: e.Node, tag: e.Tag}
				recvs[k] = append(recvs[k], half{idx: i})
			}
		}
	}
	ids := map[int]int{}
	next := 1
	for k, ss := range sends {
		rs := recvs[k]
		n := len(ss)
		if len(rs) < n {
			n = len(rs)
		}
		for i := 0; i < n; i++ {
			ids[ss[i].idx] = next
			ids[rs[i].idx] = next
			next++
		}
	}
	return ids
}

// WriteTrace renders the events as Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing.
func WriteTrace(w io.Writer, events []Event) error {
	out := make([]traceEvent, 0, len(events)*2+16)

	// Process/thread naming metadata.
	type lane struct {
		pid int
		tid string
	}
	pids := map[int]bool{}
	tids := map[lane]int{}
	tidOf := func(pid int, name string) int {
		l := lane{pid: pid, tid: name}
		id, ok := tids[l]
		if !ok {
			id = len(tids) + 1
			tids[l] = id
		}
		return id
	}

	flows := pairFlows(events)

	for i, e := range events {
		pid := e.Node + 1
		pids[pid] = true
		tid := tidOf(pid, laneFor(e))
		te := traceEvent{
			Name: nameFor(e),
			TS:   usec(int64(e.TS)),
			PID:  pid,
			TID:  tid,
			Args: argsFor(e),
		}
		if e.Dur > 0 {
			te.Phase = "X"
			te.Dur = usec(int64(e.Dur))
		} else {
			te.Phase = "i"
			te.Scope = "t"
		}
		out = append(out, te)

		if id, ok := flows[i]; ok {
			fe := traceEvent{
				Name: "p2p:" + e.Tag,
				TS:   te.TS,
				PID:  pid,
				TID:  tid,
				ID:   id,
			}
			switch e.Type {
			case EvSend:
				fe.Phase = "s"
			case EvRecv:
				fe.Phase = "f"
				fe.BindPoint = "e"
				// Bind the flow arrival to the end of the recv span.
				fe.TS = usec(int64(e.TS + e.Dur))
			}
			out = append(out, fe)
		}
	}

	// Naming metadata, then a stable per-track ordering: Perfetto does
	// not require global ts order, but monotonic ts per (pid, tid)
	// keeps tracks well-formed and the file diffable.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].TS < out[j].TS
	})

	meta := make([]traceEvent, 0, len(pids)+len(tids))
	for pid := range pids {
		name := fmt.Sprintf("node %d", pid-1)
		if pid == 0 {
			name = "cluster"
		}
		meta = append(meta, traceEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   pid,
			Args:  map[string]any{"name": name},
		})
	}
	for l, id := range tids {
		meta = append(meta, traceEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   l.pid,
			TID:   id,
			Args:  map[string]any{"name": l.tid},
		})
	}
	sort.Slice(meta, func(i, j int) bool {
		if meta[i].PID != meta[j].PID {
			return meta[i].PID < meta[j].PID
		}
		if meta[i].TID != meta[j].TID {
			return meta[i].TID < meta[j].TID
		}
		return meta[i].Name < meta[j].Name
	})

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: append(meta, out...), DisplayTimeUnit: "ns"})
}
