package cauchy

import (
	"testing"

	"eccheck/internal/gf"
)

// combinations yields all size-r subsets of [0, n).
func combinations(n, r int, fn func([]int)) {
	idx := make([]int, r)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == r {
			fn(idx)
			return
		}
		for i := start; i <= n-(r-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestParityMatrixElements(t *testing.T) {
	f := gf.MustField(8)
	k, m := 4, 2
	c, err := ParityMatrix(f, k, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			// C[i][j] must be the inverse of i XOR (m+j).
			if got := f.Mul(c.At(i, j), i^(m+j)); got != 1 {
				t.Errorf("C[%d][%d] * (x_i+y_j) = %d, want 1", i, j, got)
			}
		}
	}
}

func TestParityMatrixValidation(t *testing.T) {
	f := gf.MustField(4)
	if _, err := ParityMatrix(f, 0, 2); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := ParityMatrix(f, 2, 0); err == nil {
		t.Error("m=0: want error")
	}
	if _, err := ParityMatrix(f, 10, 7); err == nil {
		t.Error("k+m > 2^w: want error")
	}
	if _, err := ParityMatrix(f, 8, 8); err != nil {
		t.Errorf("k+m == 2^w should be allowed: %v", err)
	}
}

// TestGeneratorIsMDS verifies that every k-row subset of the generator is
// invertible, i.e. any k of the k+m chunks reconstruct the data.
func TestGeneratorIsMDS(t *testing.T) {
	f := gf.MustField(8)
	cases := []struct{ k, m int }{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {2, 3}, {4, 2}, {3, 3}, {4, 4}, {6, 3},
	}
	for _, improved := range []bool{false, true} {
		for _, tc := range cases {
			gen, err := Generator(f, tc.k, tc.m, Options{Improve: improved})
			if err != nil {
				t.Fatalf("k=%d m=%d improved=%v: %v", tc.k, tc.m, improved, err)
			}
			if gen.Rows() != tc.k+tc.m || gen.Cols() != tc.k {
				t.Fatalf("generator shape %dx%d", gen.Rows(), gen.Cols())
			}
			combinations(tc.k+tc.m, tc.k, func(rows []int) {
				sub, err := gen.SubMatrix(rows)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sub.Invert(); err != nil {
					t.Errorf("k=%d m=%d improved=%v rows=%v: submatrix singular",
						tc.k, tc.m, improved, rows)
				}
			})
		}
	}
}

func TestGeneratorSystematicTop(t *testing.T) {
	f := gf.MustField(8)
	gen, err := Generator(f, 3, 2, Options{Improve: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := gen.SubMatrix([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.IsIdentity() {
		t.Errorf("top k rows are not identity:\n%s", sub)
	}
}

func TestImproveReducesOnes(t *testing.T) {
	f := gf.MustField(8)
	for _, tc := range []struct{ k, m int }{{4, 2}, {6, 3}, {8, 4}} {
		plain, err := ParityMatrix(f, tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		genImp, err := Generator(f, tc.k, tc.m, Options{Improve: true})
		if err != nil {
			t.Fatal(err)
		}
		impParity, err := genImp.SubMatrix(rangeInts(tc.k, tc.k+tc.m))
		if err != nil {
			t.Fatal(err)
		}
		if got, was := totalOnes(f, impParity), totalOnes(f, plain); got > was {
			t.Errorf("k=%d m=%d: improvement increased ones %d -> %d", tc.k, tc.m, was, got)
		}
	}
}

func TestImprovedFirstParityRowAllOnes(t *testing.T) {
	f := gf.MustField(8)
	gen, err := Generator(f, 5, 3, Options{Improve: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if gen.At(5, j) != 1 {
			t.Errorf("improved first parity row element %d = %d, want 1", j, gen.At(5, j))
		}
	}
}

func TestOnesInBitmatrix(t *testing.T) {
	f := gf.MustField(8)
	// Multiplying by 1 is the identity bitmatrix: exactly w ones.
	if got := OnesInBitmatrix(f, 1); got != 8 {
		t.Errorf("ones(1) = %d, want 8", got)
	}
	if got := OnesInBitmatrix(f, 0); got != 0 {
		t.Errorf("ones(0) = %d, want 0", got)
	}
	// Every nonzero element's bitmatrix is invertible, so it has at least w ones.
	for e := 1; e < 256; e++ {
		if got := OnesInBitmatrix(f, e); got < 8 {
			t.Errorf("ones(%d) = %d < w", e, got)
		}
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// totalOnes returns the total bitmatrix ones of a matrix: a proxy for the
// XOR cost of encoding with it.
func totalOnes(f *gf.Field, m *gf.Matrix) int {
	total := 0
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			total += OnesInBitmatrix(f, m.At(i, j))
		}
	}
	return total
}
