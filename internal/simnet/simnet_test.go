package simnet

import (
	"testing"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestDurationForBytes(t *testing.T) {
	d, err := DurationForBytes(1000, 1000) // 1000 B at 1000 B/s = 1s
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second {
		t.Errorf("d = %v, want 1s", d)
	}
	if _, err := DurationForBytes(10, 0); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := DurationForBytes(-1, 10); err == nil {
		t.Error("negative bytes: want error")
	}
}

func TestResourceFIFOSerialization(t *testing.T) {
	r, err := NewResource("nic", 1000) // 1000 B/s
	if err != nil {
		t.Fatal(err)
	}
	s1, err := r.Exec(0, 500) // 0.5s
	if err != nil {
		t.Fatal(err)
	}
	if s1.Start != 0 || s1.End != 500*time.Millisecond {
		t.Errorf("job1 = %+v", s1)
	}
	// Ready at 0.1s but the resource is busy until 0.5s.
	s2, err := r.Exec(100*time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Start != 500*time.Millisecond || s2.End != 600*time.Millisecond {
		t.Errorf("job2 = %+v", s2)
	}
	// Ready after the queue drains: starts at its ready time.
	s3, err := r.Exec(time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Start != time.Second {
		t.Errorf("job3 = %+v", s3)
	}
}

func TestNewResourceValidation(t *testing.T) {
	if _, err := NewResource("bad", 0); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := NewResource("bad", -5); err == nil {
		t.Error("negative rate: want error")
	}
}

func TestTimelineMergesBusySpans(t *testing.T) {
	var tl Timeline
	for _, s := range []Span{{ms(10), ms(20)}, {ms(15), ms(30)}, {ms(50), ms(60)}, {ms(0), ms(5)}} {
		if err := tl.AddBusy(s.Start, s.End); err != nil {
			t.Fatal(err)
		}
	}
	busy := tl.Busy()
	want := []Span{{ms(0), ms(5)}, {ms(10), ms(30)}, {ms(50), ms(60)}}
	if len(busy) != len(want) {
		t.Fatalf("busy = %v", busy)
	}
	for i := range want {
		if busy[i] != want[i] {
			t.Errorf("busy[%d] = %v, want %v", i, busy[i], want[i])
		}
	}
	if err := tl.AddBusy(ms(5), ms(4)); err == nil {
		t.Error("inverted span: want error")
	}
	if err := tl.AddBusy(ms(100), ms(100)); err != nil {
		t.Errorf("empty span should be a no-op: %v", err)
	}
}

func TestTimelineQueries(t *testing.T) {
	var tl Timeline
	if err := tl.AddBusy(ms(10), ms(20)); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddBusy(ms(40), ms(50)); err != nil {
		t.Fatal(err)
	}
	if tl.BusyAt(ms(15)) != true || tl.BusyAt(ms(5)) != false || tl.BusyAt(ms(20)) != false {
		t.Error("BusyAt wrong")
	}
	if got := tl.NextIdle(ms(15)); got != ms(20) {
		t.Errorf("NextIdle(15ms) = %v", got)
	}
	if got := tl.NextIdle(ms(5)); got != ms(5) {
		t.Errorf("NextIdle(5ms) = %v", got)
	}
	idle := tl.IdleWindows(0, ms(60))
	want := []Span{{0, ms(10)}, {ms(20), ms(40)}, {ms(50), ms(60)}}
	if len(idle) != len(want) {
		t.Fatalf("idle = %v", idle)
	}
	for i := range want {
		if idle[i] != want[i] {
			t.Errorf("idle[%d] = %v, want %v", i, idle[i], want[i])
		}
	}
}

func TestTransferIdleSkipsBusySlots(t *testing.T) {
	var tl Timeline
	if err := tl.AddBusy(ms(10), ms(30)); err != nil {
		t.Fatal(err)
	}
	// Rate 1000 B/s = 1 B/ms. 15 bytes from t=0: 10ms idle, pause 20ms,
	// 5ms more -> finish at 35ms.
	got, err := tl.TransferIdle(0, 15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(35) {
		t.Errorf("TransferIdle = %v, want 35ms", got)
	}
	// Fits entirely before the busy span.
	got, err = tl.TransferIdle(0, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(5) {
		t.Errorf("TransferIdle = %v, want 5ms", got)
	}
	// Ready inside the busy span: starts at its end.
	got, err = tl.TransferIdle(ms(15), 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(35) {
		t.Errorf("TransferIdle = %v, want 35ms", got)
	}
}

func TestTransferContendedHalfRateDuringBusy(t *testing.T) {
	var tl Timeline
	if err := tl.AddBusy(ms(10), ms(30)); err != nil {
		t.Fatal(err)
	}
	// 1 B/ms idle, 0.5 B/ms busy. 15 bytes from t=0: 10 B by 10ms, then
	// 10 B over the 20ms busy span would be capacity 10, need 5 more ->
	// 5 B at half rate = 10ms -> finish 20ms.
	got, err := tl.TransferContended(0, 15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(20) {
		t.Errorf("TransferContended = %v, want 20ms", got)
	}
	// Contended is never later than idle-scheduled.
	idle, err := tl.TransferIdle(0, 15, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got > idle {
		t.Errorf("contended %v later than idle-scheduled %v", got, idle)
	}
	// But it interferes with training where idle scheduling does not.
	if tl.InterferenceDuring(0, got) == 0 {
		t.Error("contended transfer should overlap training busy time")
	}
	if _, err := tl.TransferContended(0, -1, 1000); err == nil {
		t.Error("negative bytes: want error")
	}
	if _, err := tl.TransferContended(0, 1, 0); err == nil {
		t.Error("zero rate: want error")
	}
}

func TestTransferContendedNoBusy(t *testing.T) {
	var tl Timeline
	got, err := tl.TransferContended(ms(7), 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(10) {
		t.Errorf("TransferContended = %v, want 10ms", got)
	}
}

func TestInterferenceDuring(t *testing.T) {
	var tl Timeline
	if err := tl.AddBusy(ms(10), ms(20)); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddBusy(ms(30), ms(40)); err != nil {
		t.Fatal(err)
	}
	if got := tl.InterferenceDuring(ms(15), ms(35)); got != ms(10) {
		t.Errorf("InterferenceDuring = %v, want 10ms", got)
	}
	if got := tl.InterferenceDuring(ms(20), ms(30)); got != 0 {
		t.Errorf("InterferenceDuring = %v, want 0", got)
	}
}

func TestResourceZeroByteJob(t *testing.T) {
	r, err := NewResource("nic", 1000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Exec(ms(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start != ms(5) || s.End != ms(5) {
		t.Errorf("zero-byte job span %+v", s)
	}
}

func TestIdleWindowsEmptyTimeline(t *testing.T) {
	var tl Timeline
	idle := tl.IdleWindows(ms(10), ms(20))
	if len(idle) != 1 || idle[0].Start != ms(10) || idle[0].End != ms(20) {
		t.Errorf("idle = %v", idle)
	}
	if got := tl.NextIdle(ms(3)); got != ms(3) {
		t.Errorf("NextIdle on empty timeline = %v", got)
	}
}

func TestTransferIdleZeroBytes(t *testing.T) {
	var tl Timeline
	if err := tl.AddBusy(ms(0), ms(10)); err != nil {
		t.Fatal(err)
	}
	got, err := tl.TransferIdle(ms(5), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != ms(10) {
		t.Errorf("zero-byte idle transfer finishes at %v, want next idle instant", got)
	}
}
