package flight

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RoundBegin("save", 1)
	r.RoundEnd("save", 1, errors.New("boom"))
	r.Phase("save", 0, 1, "encode", time.Now(), time.Millisecond)
	r.Send(0, 1, "t", 64, time.Now(), time.Millisecond, nil)
	r.Recv(1, 0, "t", 64, time.Now(), time.Millisecond, nil)
	r.Chaos("kill", 0, 1, "t")
	r.Corruption(2, "key")
	r.PoolDiscard(4096)
	r.Remote("put", "key", 1024, time.Now(), time.Millisecond)
	if r.Len() != 0 || r.Cap() != 0 || r.Cursor() != 0 {
		t.Fatal("nil recorder accessors must return zero")
	}
	if r.Snapshot() != nil || r.Drain() != nil || r.TailSince(0, 10) != nil {
		t.Fatal("nil recorder slices must be nil")
	}
	if !r.Epoch().IsZero() {
		t.Fatal("nil recorder epoch must be zero")
	}
}

// TestDisabledRecorderZeroAlloc is the hot-path budget gate: every emit
// helper on a nil recorder must be a nil-check no-op with zero
// allocations. `make allocgate` runs this in CI.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Phase("save", 0, 1, "encode", start, time.Millisecond)
		r.Send(0, 1, "xr/0/1", 4096, start, time.Microsecond, nil)
		r.Recv(1, 0, "xr/0/1", 4096, start, time.Microsecond, nil)
		r.PoolDiscard(4096)
		r.RoundBegin("save", 1)
		r.RoundEnd("save", 1, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(8)
	for i := 0; i < 20; i++ {
		r.Phase("save", i, 1, "encode", time.Now(), time.Millisecond)
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	ev := r.Snapshot()
	if len(ev) != 8 {
		t.Fatalf("snapshot length = %d, want 8", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(12 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Node != 12+i {
			t.Fatalf("event %d: node = %d, want %d", i, e.Node, 12+i)
		}
	}
}

func TestCursorAndTailSince(t *testing.T) {
	r := New(16)
	r.RoundBegin("save", 1)
	cur := r.Cursor()
	if cur != 1 {
		t.Fatalf("cursor = %d, want 1", cur)
	}
	r.Phase("save", 0, 1, "encode", time.Now(), time.Millisecond)
	r.Phase("save", 1, 1, "xor", time.Now(), time.Millisecond)
	r.RoundEnd("save", 1, errors.New("kill"))

	tail := r.TailSince(cur, 10)
	if len(tail) != 3 {
		t.Fatalf("tail length = %d, want 3", len(tail))
	}
	if tail[0].Type != EvPhase || tail[2].Type != EvRoundEnd {
		t.Fatalf("unexpected tail ordering: %v ... %v", tail[0].Type, tail[2].Type)
	}
	if tail[2].Err == "" {
		t.Fatal("round end should carry the error")
	}

	// Tighter max keeps the latest events.
	tail = r.TailSince(cur, 2)
	if len(tail) != 2 || tail[1].Type != EvRoundEnd {
		t.Fatalf("bounded tail should end with round end, got %+v", tail)
	}

	// A cursor older than the ring retains is clamped, not an error.
	for i := 0; i < 40; i++ {
		r.PoolDiscard(int64(i))
	}
	tail = r.TailSince(cur, 0)
	if len(tail) != 16 {
		t.Fatalf("overwritten tail length = %d, want ring cap 16", len(tail))
	}
}

func TestDrainConsumesButKeepsSeq(t *testing.T) {
	r := New(8)
	r.RoundBegin("save", 1)
	r.RoundEnd("save", 1, nil)
	first := r.Drain()
	if len(first) != 2 {
		t.Fatalf("first drain = %d events, want 2", len(first))
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("post-drain Len = %d, want 0", got)
	}
	if r.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
	r.RoundBegin("save", 2)
	second := r.Snapshot()
	if len(second) != 1 || second[0].Seq != 2 {
		t.Fatalf("seq must keep increasing across drains, got %+v", second)
	}
}

func TestConcurrentAppendAndDrain(t *testing.T) {
	r := New(64)
	var wg, recording sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		recording.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Send(g, (g+1)%4, fmt.Sprintf("t/%d", g), int64(i), start, time.Microsecond, nil)
				r.Phase("save", g, 1, "encode", start, time.Millisecond)
				if i == 0 {
					recording.Done()
				}
			}
		}(g)
	}
	recording.Wait() // every writer has appended: drains now race all four
	var drained int
	for i := 0; i < 200; i++ {
		drained += len(r.Drain())
		_ = r.Snapshot()
		_ = r.TailSince(r.Cursor()/2, 16)
	}
	close(stop)
	wg.Wait()
	rest := r.Drain()
	if drained+len(rest) == 0 {
		t.Fatal("expected events to be recorded")
	}
	// Whatever survived must be in strict seq order.
	for i := 1; i < len(rest); i++ {
		if rest[i].Seq != rest[i-1].Seq+1 {
			t.Fatalf("drain not in seq order: %d then %d", rest[i-1].Seq, rest[i].Seq)
		}
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New(0).Cap(); got != DefaultCapacity {
		t.Fatalf("New(0).Cap() = %d, want %d", got, DefaultCapacity)
	}
	if got := New(-5).Cap(); got != DefaultCapacity {
		t.Fatalf("New(-5).Cap() = %d, want %d", got, DefaultCapacity)
	}
}

func TestEventTypeString(t *testing.T) {
	types := []EventType{EvRoundBegin, EvRoundEnd, EvPhase, EvSend, EvRecv,
		EvChaos, EvCorruption, EvPoolDiscard, EvRemote, EvMembership,
		EvBuffer, EvBudget, EvStuck, EventType(0)}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" {
			t.Fatalf("type %d has empty name", ty)
		}
		if seen[s] {
			t.Fatalf("duplicate type name %q", s)
		}
		seen[s] = true
	}
}

// TestEventTypeNumbersStable pins the numbers postmortem JSON carries: the
// retired link-busy event keeps its number taken, so the later types do not
// shift.
func TestEventTypeNumbersStable(t *testing.T) {
	want := map[EventType]int{EvRoundBegin: 1, EvPoolDiscard: 8, EvRemote: 10,
		EvMembership: 11, EvBuffer: 12, EvBudget: 13, EvStuck: 14}
	for ty, n := range want {
		if int(ty) != n {
			t.Errorf("%s is %d, postmortem JSON carries it as %d", ty, ty, n)
		}
	}
	if s := EventType(9).String(); s != "unknown" {
		t.Errorf("the retired number 9 is named %q", s)
	}
}
