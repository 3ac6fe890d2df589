package ecpool

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"eccheck/internal/bitmatrix"
	"eccheck/internal/erasure"
)

func TestSplitRange(t *testing.T) {
	for _, tc := range []struct {
		total, parts int
		wantParts    int
	}{
		{0, 4, 0},
		{5, 4, 3},   // ceil(5/4) = 2 bytes a range
		{64, 1, 1},  // one worker
		{64, 4, 4},  // even split
		{100, 4, 4}, // uneven
		{101, 4, 4}, // ragged last range
		{8, 16, 8},  // more workers than bytes
	} {
		got := splitRange(tc.total, tc.parts)
		if len(got) != tc.wantParts {
			t.Errorf("splitRange(%d, %d) = %d parts, want %d",
				tc.total, tc.parts, len(got), tc.wantParts)
			continue
		}
		// Ranges must tile [0, total) exactly.
		next := 0
		for i, rg := range got {
			if rg[0] != next {
				t.Errorf("range %d starts at %d, want %d", i, rg[0], next)
			}
			if rg[0] >= rg[1] {
				t.Errorf("range %d is empty: %v", i, rg)
			}
			next = rg[1]
		}
		if tc.total > 0 && next != tc.total {
			t.Errorf("ranges end at %d, want %d", next, tc.total)
		}
	}
}

func TestPoolEncodeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	code, err := erasure.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		size := code.ChunkAlign(100_000)
		data := make([][]byte, 4)
		for i := range data {
			data[i] = make([]byte, size)
			r.Read(data[i])
		}
		want := make([][]byte, 2)
		got := make([][]byte, 2)
		for i := 0; i < 2; i++ {
			want[i] = make([]byte, size)
			got[i] = make([]byte, size)
		}
		if err := code.Encode(data, want); err != nil {
			t.Fatal(err)
		}
		if err := p.Encode(code, data, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("workers=%d: parity %d mismatch", workers, i)
			}
		}
		p.Close()
	}
}

func TestPoolRunScheduleMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	code, err := erasure.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	size := code.ChunkAlign(50_000)
	data := make([][]byte, 3)
	parity := make([][]byte, 2)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := code.Encode(data, parity); err != nil {
		t.Fatal(err)
	}

	// Recover data chunks 0 and 2 from {1, parity0, parity1}.
	sched, err := code.TransformSchedule([]int{1, 3, 4}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	in := [][]byte{data[1], parity[0], parity[1]}
	want := make([][]byte, 2)
	got := make([][]byte, 2)
	for i := range want {
		want[i] = make([]byte, size)
		got[i] = make([]byte, size)
	}
	if err := sched.Execute(in, want); err != nil {
		t.Fatal(err)
	}
	p := NewPool(4)
	defer p.Close()
	if err := p.RunSchedule(sched, in, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("schedule output %d mismatch", i)
		}
	}
	if !bytes.Equal(want[0], data[0]) || !bytes.Equal(want[1], data[2]) {
		t.Error("transform did not recover original data")
	}
}

func TestPoolXOR(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	p := NewPool(3)
	defer p.Close()
	for _, n := range []int{0, 1, 8, 1000, 64 * 1024} {
		dst := make([]byte, n)
		src := make([]byte, n)
		r.Read(dst)
		r.Read(src)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		if err := p.XOR(dst, src); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(dst, want) {
			t.Errorf("n=%d: XOR mismatch", n)
		}
	}
	if err := p.XOR(make([]byte, 3), make([]byte, 4)); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestPoolXORReduce(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	p := NewPool(3)
	defer p.Close()
	for _, srcCount := range []int{0, 1, 2, 5} {
		for _, n := range []int{0, 1, 8, 1000, 64 * 1024} {
			dst := make([]byte, n)
			r.Read(dst)
			want := append([]byte(nil), dst...)
			srcs := make([][]byte, srcCount)
			for s := range srcs {
				srcs[s] = make([]byte, n)
				r.Read(srcs[s])
				for i := range want {
					want[i] ^= srcs[s][i]
				}
			}
			if err := p.XORReduce(dst, srcs); err != nil {
				t.Fatalf("srcs=%d n=%d: %v", srcCount, n, err)
			}
			if !bytes.Equal(dst, want) {
				t.Errorf("srcs=%d n=%d: XORReduce mismatch", srcCount, n)
			}
		}
	}
	if err := p.XORReduce(make([]byte, 3), [][]byte{make([]byte, 4)}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() <= 0 {
		t.Errorf("Workers() = %d, want > 0", p.Workers())
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic or deadlock
}

func TestPoolEncodeEmptyData(t *testing.T) {
	code, err := erasure.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2)
	defer p.Close()
	if err := p.Encode(code, nil, nil); err == nil {
		t.Error("nil data: want error")
	}
}

func BenchmarkPoolEncode64MBWorkers(b *testing.B) {
	if testing.Short() {
		b.Skip("full-size 64 MB encode; run without -short")
	}
	code, err := erasure.New(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	size := 64 << 20
	data := make([][]byte, 2)
	parity := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		data[i] = make([]byte, size)
		parity[i] = make([]byte, size)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			b.SetBytes(int64(2 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Encode(code, data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + strconv.Itoa(workers)
}

// A chunk shorter than the first one is an error from both ExecuteRange and
// RunSchedule, never an out-of-range slice: on a pool worker such a panic
// would end the process, since no caller can recover it.
func TestShortChunkIsAnError(t *testing.T) {
	code, err := erasure.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := code.ScalarSchedule(70, false)
	if err != nil {
		t.Fatal(err)
	}
	transform, err := code.TransformSchedule([]int{1, 3, 4}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	chunks := func(sizes ...int) [][]byte {
		out := make([][]byte, len(sizes))
		for i, n := range sizes {
			out[i] = make([]byte, n)
		}
		return out
	}
	p := NewPool(2)
	defer p.Close()
	for _, tc := range []struct {
		name      string
		sched     *bitmatrix.Schedule
		data, out [][]byte
	}{
		{"scalar short out[0]", scalar, chunks(1024), chunks(512)},
		{"short data[1]", transform, chunks(1024, 512, 1024), chunks(1024, 1024)},
		{"short data[2]", transform, chunks(1024, 1024, 1016), chunks(1024, 1024)},
		{"short out[0]", transform, chunks(1024, 1024, 1024), chunks(512, 1024)},
		{"short out[1]", transform, chunks(1024, 1024, 1024), chunks(1024, 1016)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := p.RunSchedule(tc.sched, tc.data, tc.out); err == nil {
				t.Error("RunSchedule: want an error")
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("ExecuteRange panicked: %v", r)
					}
				}()
				if err := tc.sched.ExecuteRange(tc.data, tc.out, 0, len(tc.data[0])/tc.sched.W); err == nil {
					t.Error("ExecuteRange: want an error")
				}
			}()
		})
	}
}
