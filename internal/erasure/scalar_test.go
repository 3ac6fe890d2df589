package erasure

import (
	"bytes"
	"math/rand"
	"testing"

	"eccheck/internal/gf"
)

// The distributed per-worker encoding must agree with chunk-level encoding:
// splitting each chunk into segments, scalar-multiplying each worker's
// segment and XOR-reducing across data groups yields exactly the parity
// chunks Encode produces.
func TestDistributedEncodingMatchesChunkEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	k, m := 2, 2
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	segments := 4 // workers per data group
	segSize := c.ChunkAlign(512)
	chunkSize := segments * segSize

	data := make([][]byte, k)
	for j := range data {
		data[j] = make([]byte, chunkSize)
		r.Read(data[j])
	}
	// The coding unit of the protocol is the worker packet (segment): a
	// chunk is a concatenation of independently coded segments. Build the
	// oracle by encoding each segment column as its own region.
	wantParity := make([][]byte, m)
	for i := range wantParity {
		wantParity[i] = make([]byte, chunkSize)
	}
	for seg := 0; seg < segments; seg++ {
		in := make([][]byte, k)
		out := make([][]byte, m)
		for j := range in {
			in[j] = data[j][seg*segSize : (seg+1)*segSize]
		}
		for i := range out {
			out[i] = wantParity[i][seg*segSize : (seg+1)*segSize]
		}
		if err := c.Encode(in, out); err != nil {
			t.Fatal(err)
		}
	}

	// Distributed path: per (parity index, segment), each data group's
	// worker contributes coef * its segment; contributions XOR together.
	for i := 0; i < m; i++ {
		for seg := 0; seg < segments; seg++ {
			acc := make([]byte, segSize)
			for j := 0; j < k; j++ {
				coef, err := c.ParityCoefficient(i, j)
				if err != nil {
					t.Fatal(err)
				}
				contrib := make([]byte, segSize)
				src := data[j][seg*segSize : (seg+1)*segSize]
				if err := c.ScalarMulInto(coef, contrib, src); err != nil {
					t.Fatal(err)
				}
				for b := range acc {
					acc[b] ^= contrib[b]
				}
			}
			want := wantParity[i][seg*segSize : (seg+1)*segSize]
			if !bytes.Equal(acc, want) {
				t.Errorf("parity %d segment %d: distributed encoding mismatch", i, seg)
			}
		}
	}
}

// Distributed recovery: compute wanted chunks segment-by-segment with
// TransformMatrix coefficients and compare with TransformSchedule output.
func TestDistributedRecoveryMatchesTransform(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	segSize := c.ChunkAlign(256)
	chunkSize := 2 * segSize
	data := make([][]byte, 2)
	parity := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		data[i] = make([]byte, chunkSize)
		r.Read(data[i])
		parity[i] = make([]byte, chunkSize)
	}
	// Encode per segment: the protocol's region layout.
	for seg := 0; seg < 2; seg++ {
		in := [][]byte{
			data[0][seg*segSize : (seg+1)*segSize],
			data[1][seg*segSize : (seg+1)*segSize],
		}
		out := [][]byte{
			parity[0][seg*segSize : (seg+1)*segSize],
			parity[1][seg*segSize : (seg+1)*segSize],
		}
		if err := c.Encode(in, out); err != nil {
			t.Fatal(err)
		}
	}

	available := []int{0, 3} // D0, P1 survive (Fig. 7 scenario)
	wanted := []int{1, 2}    // recover D1, P0
	tm, err := c.TransformMatrix(available, wanted)
	if err != nil {
		t.Fatal(err)
	}
	avail := [][]byte{data[0], parity[1]}
	wantOut := [][]byte{data[1], parity[0]}

	for wi := range wanted {
		for seg := 0; seg < 2; seg++ {
			acc := make([]byte, segSize)
			for ai := range available {
				coef := tm.At(wi, ai)
				if coef == 0 {
					continue
				}
				contrib := make([]byte, segSize)
				src := avail[ai][seg*segSize : (seg+1)*segSize]
				if err := c.ScalarMulInto(coef, contrib, src); err != nil {
					t.Fatal(err)
				}
				for b := range acc {
					acc[b] ^= contrib[b]
				}
			}
			want := wantOut[wi][seg*segSize : (seg+1)*segSize]
			if !bytes.Equal(acc, want) {
				t.Errorf("wanted chunk %d segment %d: distributed recovery mismatch", wanted[wi], seg)
			}
		}
	}
}

func TestScalarScheduleCachedAndValidated(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, accumulate := range []bool{false, true} {
		s1, err := c.ScalarSchedule(3, accumulate)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := c.ScalarSchedule(3, accumulate)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Errorf("accumulate=%v: scalar schedule not cached", accumulate)
		}
		if _, err := c.ScalarSchedule(0, accumulate); err == nil {
			t.Error("coef 0: want error")
		}
		if _, err := c.ScalarSchedule(256, accumulate); err == nil {
			t.Error("coef 256 outside GF(2^8): want error")
		}
		if _, err := c.ScalarSchedule(-1, accumulate); err == nil {
			t.Error("negative coef: want error")
		}
	}
	// The accumulating schedule is the plain expansion, all XORs into dst:
	// one op per one of B(coef), where the smart dst = coef·src may copy.
	mul, err := c.ScalarSchedule(5, false)
	if err != nil {
		t.Fatal(err)
	}
	add, err := c.ScalarSchedule(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if mul == add {
		t.Fatal("mul and mul-add share one cached schedule")
	}
	if add.XORCount() != len(add.Ops) || len(add.Ops) != 22 {
		t.Errorf("mul-add schedule for 5: %d ops, %d of them XORs; want 22 XORs", len(add.Ops), add.XORCount())
	}
}

func TestScalarMulIdentityAndZero(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, c.ChunkAlign(64))
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, len(src))
	if err := c.ScalarMulInto(1, dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Error("coef 1 is not identity")
	}
	if err := c.ScalarMulInto(0, dst, src); err != nil {
		t.Fatal(err)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("coef 0 did not clear dst")
		}
	}
	if err := c.ScalarMulInto(2, dst, src[:8]); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestParityCoefficientValidation(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ParityCoefficient(-1, 0); err == nil {
		t.Error("negative parity index: want error")
	}
	if _, err := c.ParityCoefficient(2, 0); err == nil {
		t.Error("parity index >= m: want error")
	}
	if _, err := c.ParityCoefficient(0, 3); err == nil {
		t.Error("data group >= k: want error")
	}
	coef, err := c.ParityCoefficient(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generator()
	if coef != gen.At(3, 0) {
		t.Errorf("coefficient %d != generator entry %d", coef, gen.At(3, 0))
	}
}

// ScalarMulAdd is ScalarMulInto followed by XORSlice, in one pass: byte for
// byte, for every coefficient of GF(2^8) at several aligned lengths, onto a
// dirty dst.
func TestScalarMulAddMatchesMulThenXOR(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 200, 5000, 70 << 10} {
		n := c.ChunkAlign(size)
		src, dst := make([]byte, n), make([]byte, n)
		r.Read(src)
		r.Read(dst)
		want, term := make([]byte, n), make([]byte, n)
		for coef := 0; coef < 256; coef++ {
			if err := c.ScalarMulInto(coef, term, src); err != nil {
				t.Fatal(err)
			}
			copy(want, dst)
			if err := gf.XORSlice(want, term); err != nil {
				t.Fatal(err)
			}
			if err := c.ScalarMulAdd(coef, dst, src); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d coef=%d: mul-add differs from mul then XOR", n, coef)
			}
		}
	}
}

func TestScalarMulAddValidation(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := c.ChunkAlign(64)
	for _, coef := range []int{0, 1, 2} {
		if err := c.ScalarMulAdd(coef, make([]byte, n), make([]byte, 2*n)); err == nil {
			t.Errorf("coef %d, length mismatch: want error", coef)
		}
	}
	for _, coef := range []int{-1, 256} {
		if err := c.ScalarMulAdd(coef, make([]byte, n), make([]byte, n)); err == nil {
			t.Errorf("coef %d outside GF(2^8): want error", coef)
		}
	}
}
