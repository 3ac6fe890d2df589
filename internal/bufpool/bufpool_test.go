package bufpool

import (
	"sync"
	"testing"

	"eccheck/internal/obs"
)

func TestClassMath(t *testing.T) {
	cases := []struct {
		n, wantCap int
	}{
		{1, 256}, {255, 256}, {256, 256}, {257, 512},
		{4096, 4096}, {4097, 8192},
		{1 << 20, 1 << 20}, {1<<20 + 1, 2 << 20},
		{1 << 30, 1 << 30},
	}
	p := New()
	for _, c := range cases {
		buf := p.Get(c.n)
		if len(buf) != c.n || cap(buf) != c.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want len=%d cap=%d",
				c.n, len(buf), cap(buf), c.n, c.wantCap)
		}
		p.Put(buf)
	}
}

func TestOversizeGet(t *testing.T) {
	p := New()
	n := 1<<30 + 1
	buf := p.Get(n)
	if len(buf) != n || cap(buf) != n {
		t.Fatalf("oversize Get: len=%d cap=%d, want exact %d", len(buf), cap(buf), n)
	}
	p.Put(buf) // must be dropped, not corrupt a class
	if got := p.Get(512); cap(got) != 512 {
		t.Fatalf("class corrupted by oversize Put: cap=%d", cap(got))
	}
}

func TestZeroAndNegativeGet(t *testing.T) {
	p := New()
	if buf := p.Get(0); buf != nil {
		t.Fatalf("Get(0) = %v, want nil", buf)
	}
	if buf := p.Get(-3); buf != nil {
		t.Fatalf("Get(-3) = %v, want nil", buf)
	}
}

func TestRecycleRoundTrip(t *testing.T) {
	p := New()
	a := p.Get(1000)
	for i := range a {
		a[i] = 0xAB
	}
	p.Put(a)
	// The recycled buffer (when the same one comes back) must carry the
	// requested length even though the class is larger.
	b := p.Get(900)
	if len(b) != 900 || cap(b) != 1024 {
		t.Fatalf("recycled Get: len=%d cap=%d", len(b), cap(b))
	}
}

func TestPutRejectsForeignCapacity(t *testing.T) {
	p := New()
	reg := obs.NewRegistry()
	p.SetMetrics(reg)
	p.Put(make([]byte, 1000)) // cap 1000 is not a class size
	p.Put(make([]byte, 100))  // below the smallest class
	if got := reg.Counter("bufpool_put_rejects_total").Value(); got != 2 {
		t.Fatalf("rejects = %d, want 2", got)
	}
	if got := reg.Counter("bufpool_puts_total").Value(); got != 0 {
		t.Fatalf("puts = %d, want 0", got)
	}
}

func TestMetrics(t *testing.T) {
	p := New()
	reg := obs.NewRegistry()
	p.SetMetrics(reg)
	a := p.Get(600) // miss
	p.Put(a)
	b := p.Get(600) // normally a hit (under -race, sync.Pool may drop Puts)
	_ = b
	hits := reg.Counter("bufpool_hits_total").Value()
	misses := reg.Counter("bufpool_misses_total").Value()
	if hits+misses != 2 || misses < 1 {
		t.Fatalf("hits=%d misses=%d, want first Get a miss and hits+misses=2", hits, misses)
	}
	if rec := reg.Counter("bufpool_recycled_bytes_total").Value(); rec != 600*hits {
		t.Fatalf("recycled bytes = %d, want %d", rec, 600*hits)
	}
	if puts := reg.Counter("bufpool_puts_total").Value(); puts != 1 {
		t.Fatalf("puts = %d, want 1", puts)
	}
}

// TestConcurrentGetPut hammers the pool from many goroutines under the race
// detector: each goroutine must observe exclusive ownership of every buffer
// it holds (a data race here means two holders shared one buffer).
func TestConcurrentGetPut(t *testing.T) {
	p := New()
	const goroutines = 8
	const rounds = 500
	sizes := []int{300, 4096, 5000, 64 << 10, 300}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			held := make([][]byte, 0, len(sizes))
			for r := 0; r < rounds; r++ {
				for _, n := range sizes {
					buf := p.Get(n)
					for i := 0; i < len(buf); i += 64 {
						buf[i] = byte(g)
					}
					held = append(held, buf)
				}
				for _, buf := range held {
					for i := 0; i < len(buf); i += 64 {
						if buf[i] != byte(g) {
							t.Errorf("goroutine %d: buffer shared with another holder", g)
							return
						}
					}
					p.Put(buf)
				}
				held = held[:0]
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkGetPut measures the steady-state pool round trip against the
// allocator (run with -benchmem: the pooled path must report 0 allocs/op).
func BenchmarkGetPut(b *testing.B) {
	p := New()
	p.Put(p.Get(1 << 20)) // prime the class
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := p.Get(1 << 20)
			buf[0] = byte(i)
			p.Put(buf)
		}
	})
	b.Run("make", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := make([]byte, 1<<20)
			buf[0] = byte(i)
		}
	})
}
