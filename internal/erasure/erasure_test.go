package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func makeChunks(r *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		r.Read(out[i])
	}
	return out
}

func encodeAll(t *testing.T, c *Code, r *rand.Rand, size int) [][]byte {
	t.Helper()
	data := makeChunks(r, c.K(), size)
	parity := make([][]byte, c.M())
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	return append(data, parity...)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := New(2, 0); err == nil {
		t.Error("m=0: want error")
	}
	if _, err := New(200, 200); err == nil {
		t.Error("k+m > 2^8: want error")
	}
}

func TestChunkAlign(t *testing.T) {
	c, err := New(2, 2) // w=8 -> unit 64
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {1, 64}, {63, 64}, {64, 64}, {65, 128}, {128, 128},
	} {
		if got := c.ChunkAlign(tc.in); got != tc.want {
			t.Errorf("ChunkAlign(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestEncodeThenVerify re-encodes Encode's parity the way VerifyIntegrity
// checks a stored checkpoint — Σ_j E[k+i][j]·data_j, accumulated with
// ScalarMulAdd — and requires it byte for byte, then sees one flipped
// parity byte.
func TestEncodeThenVerify(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ k, m int }{{2, 2}, {4, 2}, {3, 3}, {6, 2}, {2, 4}} {
		c, err := New(tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		chunks := encodeAll(t, c, r, 256)
		reencodes := func() bool {
			fresh := make([]byte, 256)
			for i := 0; i < tc.m; i++ {
				clear(fresh)
				for j := 0; j < tc.k; j++ {
					coef, err := c.ParityCoefficient(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if err := c.ScalarMulAdd(coef, fresh, chunks[j]); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(fresh, chunks[tc.k+i]) {
					return false
				}
			}
			return true
		}
		if !reencodes() {
			t.Errorf("k=%d m=%d: re-encode differs from a fresh encoding", tc.k, tc.m)
		}
		chunks[tc.k+tc.m-1][3] ^= 0xff
		if reencodes() {
			t.Errorf("k=%d m=%d: re-encode matches corrupted parity", tc.k, tc.m)
		}
	}
}

// TestReconstructAllErasurePatterns is the MDS acid test: for every subset
// of up to m erased chunks, reconstruction must restore the original bytes.
func TestReconstructAllErasurePatterns(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, tc := range []struct{ k, m int }{{2, 2}, {4, 2}, {3, 3}, {2, 3}} {
		c, err := New(tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.k + tc.m
		orig := encodeAll(t, c, r, 192)

		// Enumerate all non-empty erasure sets of size <= m via bitmask.
		for mask := 1; mask < (1 << n); mask++ {
			erased := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					erased++
				}
			}
			if erased > tc.m {
				continue
			}
			work := make([][]byte, n)
			for i := range work {
				if mask&(1<<i) != 0 {
					work[i] = nil
				} else {
					work[i] = append([]byte(nil), orig[i]...)
				}
			}
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("k=%d m=%d mask=%b: %v", tc.k, tc.m, mask, err)
			}
			for i := range work {
				if !bytes.Equal(work[i], orig[i]) {
					t.Fatalf("k=%d m=%d mask=%b: chunk %d mismatch", tc.k, tc.m, mask, i)
				}
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := encodeAll(t, c, r, 64)
	chunks[0], chunks[1], chunks[2] = nil, nil, nil
	if err := c.Reconstruct(chunks); err == nil {
		t.Error("3 erasures with m=2: want error")
	}
}

func TestReconstructNoErasuresIsNoop(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := encodeAll(t, c, r, 64)
	snapshot := make([][]byte, len(chunks))
	for i := range chunks {
		snapshot[i] = append([]byte(nil), chunks[i]...)
	}
	if err := c.Reconstruct(chunks); err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		if !bytes.Equal(chunks[i], snapshot[i]) {
			t.Errorf("chunk %d modified by no-op reconstruct", i)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := func(n, size int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, size)
		}
		return out
	}
	if err := c.Encode(good(1, 64), good(2, 64)); err == nil {
		t.Error("wrong data count: want error")
	}
	if err := c.Encode(good(2, 64), good(3, 64)); err == nil {
		t.Error("wrong parity count: want error")
	}
	if err := c.Encode(good(2, 60), good(2, 60)); err == nil {
		t.Error("unaligned size: want error")
	}
	data := good(2, 64)
	data[1] = nil
	if err := c.Encode(data, good(2, 64)); err == nil {
		t.Error("nil data chunk: want error")
	}
}

func TestTransformScheduleValidation(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TransformSchedule([]int{0}, []int{1}); err == nil {
		t.Error("too few available: want error")
	}
	if _, err := c.TransformSchedule([]int{0, 0}, []int{1}); err == nil {
		t.Error("duplicate available: want error")
	}
	if _, err := c.TransformSchedule([]int{0, 9}, []int{1}); err == nil {
		t.Error("out-of-range available: want error")
	}
	if _, err := c.TransformSchedule([]int{0, 1}, nil); err == nil {
		t.Error("empty wanted: want error")
	}
	if _, err := c.TransformSchedule([]int{0, 1}, []int{7}); err == nil {
		t.Error("out-of-range wanted: want error")
	}
}

// TestTransformRecoveryFlow mirrors the paper's Fig. 7: with k=m=2, chunks
// D0 and P1 survive; the transform computes D1 and P0 from them (decode
// shaped exactly like an encode).
func TestTransformRecoveryFlow(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := encodeAll(t, c, r, 128)

	sched, err := c.TransformSchedule([]int{0, 3}, []int{1, 2}) // have D0, P1; want D1, P0
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 2)
	for i := range out {
		out[i] = make([]byte, 128)
	}
	if err := sched.Execute([][]byte{orig[0], orig[3]}, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], orig[1]) {
		t.Error("recovered D1 mismatch")
	}
	if !bytes.Equal(out[1], orig[2]) {
		t.Error("recovered P0 mismatch")
	}
}

func TestEncodeRangeMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	size := 512
	data := makeChunks(r, 4, size)
	want := make([][]byte, 2)
	got := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		want[i] = make([]byte, size)
		got[i] = make([]byte, size)
	}
	if err := c.Encode(data, want); err != nil {
		t.Fatal(err)
	}
	psize := size / 8
	mid := psize / 2
	if err := c.EncodeRange(data, got, 0, mid); err != nil {
		t.Fatal(err)
	}
	if err := c.EncodeRange(data, got, mid, psize); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("parity %d: ranged encode mismatch", i)
		}
	}
}

func TestOptionCombinationsAllMDS(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, improve := range []bool{false, true} {
		for _, smart := range []bool{false, true} {
			c, err := New(3, 2, WithImprovedMatrix(improve), WithSmartSchedule(smart))
			if err != nil {
				t.Fatal(err)
			}
			size := c.ChunkAlign(100)
			orig := encodeAll(t, c, r, size)
			work := make([][]byte, 5)
			for i := range work {
				work[i] = append([]byte(nil), orig[i]...)
			}
			work[0], work[4] = nil, nil
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("improve=%v smart=%v: %v", improve, smart, err)
			}
			for i := range work {
				if !bytes.Equal(work[i], orig[i]) {
					t.Errorf("improve=%v smart=%v: chunk %d mismatch", improve, smart, i)
				}
			}
		}
	}
}

// Property: for random data and a random erasure pattern of size <= m,
// reconstruction is exact.
func TestReconstructQuick(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	size := c.ChunkAlign(64)
	prop := func(seed int64, maskRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		data := makeChunks(r, 4, size)
		parity := make([][]byte, 3)
		for i := range parity {
			parity[i] = make([]byte, size)
		}
		if err := c.Encode(data, parity); err != nil {
			return false
		}
		orig := append(data, parity...)

		// Derive an erasure set of size <= 3 from the mask.
		work := make([][]byte, 7)
		erased := 0
		for i := range work {
			if maskRaw&(1<<i) != 0 && erased < 3 {
				work[i] = nil
				erased++
			} else {
				work[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := c.Reconstruct(work); err != nil {
			return false
		}
		for i := range work {
			if !bytes.Equal(work[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
