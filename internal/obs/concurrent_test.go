package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestSnapshotDuringWrites races Snapshot/WriteText/WriteJSON against
// counter increments and histogram observations. Under -race this certifies that
// rendering a live registry is safe; the final snapshot must also see
// every increment once the writers join.
func TestSnapshotDuringWrites(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 6
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("hits_total")
			h := reg.Histogram("round_ns", L("op", "save"))
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}(g)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				var buf bytes.Buffer
				if err := snap.WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
				buf.Reset()
				if err := snap.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	snap := reg.Snapshot()
	if v, ok := snap.Counter("hits_total"); !ok || v != goroutines*perG {
		t.Fatalf("final counter = %d/%v, want %d", v, ok, goroutines*perG)
	}
	if hp, ok := snap.Histogram("round_ns", L("op", "save")); !ok || hp.Count != goroutines*perG {
		t.Fatalf("final histogram count = %+v/%v, want %d", hp, ok, goroutines*perG)
	}
}
