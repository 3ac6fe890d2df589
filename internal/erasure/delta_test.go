package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// Delta-parity repair must be byte-identical to a full re-encode: for any
// data-chunk mutation Δ, P_i ^= coef(i,j)·Δ — UpdateParity, m ScalarMulAdd
// calls in place — lands every parity chunk on exactly the bytes Encode
// would produce from the mutated data.
func TestDeltaParityMatchesFullReencode(t *testing.T) {
	for _, km := range [][2]int{{2, 2}, {3, 2}, {4, 3}} {
		k, m := km[0], km[1]
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(91 + k*10 + m)))
		size := c.ChunkAlign(768)

		data := make([][]byte, k)
		for j := range data {
			data[j] = make([]byte, size)
			r.Read(data[j])
		}
		parity := make([][]byte, m)
		for i := range parity {
			parity[i] = make([]byte, size)
		}
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}

		// Mutate each data chunk in turn and repair incrementally.
		for j := 0; j < k; j++ {
			mutated := make([]byte, size)
			r.Read(mutated)
			delta := make([]byte, size)
			for b := range delta {
				delta[b] = data[j][b] ^ mutated[b]
			}
			data[j] = mutated

			if err := c.UpdateParity(j, delta, parity); err != nil {
				t.Fatalf("(%d,%d) UpdateParity group %d: %v", k, m, j, err)
			}

			want := make([][]byte, m)
			for i := range want {
				want[i] = make([]byte, size)
			}
			if err := c.Encode(data, want); err != nil {
				t.Fatal(err)
			}
			for i := range parity {
				if !bytes.Equal(parity[i], want[i]) {
					t.Fatalf("(%d,%d) parity %d diverged from full re-encode after mutating group %d", k, m, i, j)
				}
			}
		}
	}
}

// A zero delta must leave parity untouched (the no-op fast path callers
// rely on when a buffer slice did not change).
func TestDeltaParityZeroDeltaIsNoop(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(92))
	size := c.ChunkAlign(256)
	data := [][]byte{make([]byte, size), make([]byte, size)}
	r.Read(data[0])
	r.Read(data[1])
	parity := [][]byte{make([]byte, size), make([]byte, size)}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	before := [][]byte{append([]byte(nil), parity[0]...), append([]byte(nil), parity[1]...)}
	if err := c.UpdateParity(1, make([]byte, size), parity); err != nil {
		t.Fatal(err)
	}
	for i := range parity {
		if !bytes.Equal(parity[i], before[i]) {
			t.Fatalf("parity %d changed under zero delta", i)
		}
	}
}

func TestDeltaParityValidation(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	size := c.ChunkAlign(64)
	good := [][]byte{make([]byte, size), make([]byte, size)}
	if err := c.UpdateParity(0, make([]byte, size), good[:1]); err == nil {
		t.Error("wrong parity count: want error")
	}
	if err := c.UpdateParity(0, make([]byte, size), [][]byte{make([]byte, size), make([]byte, size-1)}); err == nil {
		t.Error("mismatched parity length: want error")
	}
	if err := c.UpdateParity(2, make([]byte, size), good); err == nil {
		t.Error("data group out of range: want error")
	}
	if err := c.UpdateParity(-1, make([]byte, size), good); err == nil {
		t.Error("negative data group: want error")
	}
	if err := c.UpdateParity(0, make([]byte, size-64), good); err == nil {
		t.Error("delta shorter than the parity regions: want error")
	}
}
