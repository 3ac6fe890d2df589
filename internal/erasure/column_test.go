package erasure_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eccheck/internal/ecpool"
	"eccheck/internal/erasure"
)

// columns returns the coefficient columns the rounds run on a (k, m) code:
// the parity column of every data group (a save worker's window times its m
// parity coefficients) and, for each loss pattern, every basis position's
// column of the decode transform (a rebuild basis owner's window times one
// coefficient per missing chunk).
func columns(t *testing.T, c *erasure.Code) map[string][]int {
	t.Helper()
	k, m := c.K(), c.M()
	out := map[string][]int{}
	for j := 0; j < k; j++ {
		col := make([]int, m)
		for i := range col {
			coef, err := c.ParityCoefficient(i, j)
			if err != nil {
				t.Fatal(err)
			}
			col[i] = coef
		}
		out[fmt.Sprintf("parity/%d", j)] = col
	}
	for name, missing := range lossPatterns(k, m) {
		basis := survivors(k, m, missing)
		tm, err := c.TransformMatrix(basis, missing)
		if err != nil {
			t.Fatal(err)
		}
		for pos := range basis {
			col := make([]int, len(missing))
			for row := range col {
				col[row] = tm.At(row, pos)
			}
			out[fmt.Sprintf("%s/%d", name, pos)] = col
		}
	}
	return out
}

// lossPatterns names the missing chunks of a few rebuilds: every data chunk,
// one data chunk, the first data and the last parity chunk, every parity chunk.
func lossPatterns(k, m int) map[string][]int {
	all, parity := make([]int, 0, m), make([]int, 0, m)
	for i := 0; i < min(k, m); i++ {
		all = append(all, i)
	}
	for i := 0; i < m; i++ {
		parity = append(parity, k+i)
	}
	return map[string][]int{
		"all-data": all,
		"one-data": {k - 1},
		"mixed":    {0, k + m - 1},
		"parity":   parity,
	}
}

// survivors is the basis a rebuild uses: the first k chunks not missing.
func survivors(k, m int, missing []int) []int {
	var basis []int
	for chunk := 0; chunk < k+m && len(basis) < k; chunk++ {
		if !slices.Contains(missing, chunk) {
			basis = append(basis, chunk)
		}
	}
	return basis
}

// A column product is the per-coefficient products, byte for byte: out[i] =
// coefs[i]·src, every output overwritten (a zero coefficient's cleared),
// serially and split across the pool, on a window, a short last window and a
// region of at least the engine's 256 KiB pool threshold.
func TestColumnMatchesScalarMulInto(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	pool := ecpool.NewPool(3)
	defer pool.Close()
	for _, km := range [][2]int{{2, 2}, {4, 4}, {8, 8}} {
		c, err := erasure.New(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		cols := columns(t, c)
		cols["one"] = []int{1}
		cols["zero"] = []int{0}
		// Zeros ahead of and between the rows smart scheduling derives from
		// each other: the outputs after a zero move up by one.
		parity := cols["parity/0"]
		cols["with-zero"] = slices.Concat([]int{0}, parity[:1], []int{0}, parity[1:], []int{5, 0, 1, 0x8e})
		for name, coefs := range cols {
			col, err := c.Column(coefs)
			if err != nil {
				t.Fatalf("k%dm%d %s: %v", km[0], km[1], name, err)
			}
			for _, n := range []int{64 << 10, 192, 256<<10 + 64} {
				src := make([]byte, n)
				r.Read(src)
				want := make([][]byte, len(coefs))
				for i, coef := range coefs {
					want[i] = make([]byte, n)
					if err := c.ScalarMulInto(coef, want[i], src); err != nil {
						t.Fatal(err)
					}
				}
				run := func(how string, exec func(out [][]byte) error) {
					out := make([][]byte, len(coefs))
					for i := range out {
						out[i] = make([]byte, n)
						r.Read(out[i]) // stale bytes: every one must be overwritten
					}
					if err := exec(out); err != nil {
						t.Fatalf("k%dm%d %s n=%d %s: %v", km[0], km[1], name, n, how, err)
					}
					for i := range out {
						if !bytes.Equal(out[i], want[i]) {
							t.Errorf("k%dm%d %s n=%d %s: output %d (coef %d) differs from ScalarMulInto", km[0], km[1], name, n, how, i, coefs[i])
						}
					}
				}
				run("serial", func(out [][]byte) error { return col.Execute([][]byte{src}, out) })
				if n >= 256<<10 {
					run("pool", func(out [][]byte) error { return pool.RunSchedule(col, [][]byte{src}, out) })
				}
			}
		}
	}
	c, err := erasure.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{nil, {256}, {3, -1}} {
		if _, err := c.Column(bad); err == nil {
			t.Errorf("Column(%v): want an error", bad)
		}
	}
}

// The column is what smart scheduling is for: the XORs of a source's
// products, compiled one schedule per coefficient and as one column, summed
// over the k parity columns of the encode and the k basis columns of a
// rebuild that lost every data chunk. The counts are exact, so a change to
// the schedule compiler shows here.
func TestColumnXORCounts(t *testing.T) {
	for _, tc := range []struct {
		k, m                    int
		encodePer, encodeColumn int
		decodePer, decodeColumn int
	}{
		{2, 2, 10, 10, 30, 21},
		{4, 4, 140, 112, 299, 154},
		{8, 8, 852, 517, 1173, 451},
	} {
		c, err := erasure.New(tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		cols := columns(t, c)
		// count sums the k columns named prefix/0 … prefix/k-1.
		count := func(prefix string) (per, column int) {
			for pos := 0; pos < tc.k; pos++ {
				coefs := cols[fmt.Sprintf("%s/%d", prefix, pos)]
				for _, coef := range coefs {
					s, err := c.ScalarSchedule(coef, false)
					if err != nil {
						t.Fatal(err)
					}
					per += s.XORCount()
				}
				col, err := c.Column(coefs)
				if err != nil {
					t.Fatal(err)
				}
				column += col.XORCount()
			}
			return per, column
		}
		if per, column := count("parity"); per != tc.encodePer || column != tc.encodeColumn {
			t.Errorf("k%dm%d encode: %d XORs per coefficient, %d as columns; want %d and %d", tc.k, tc.m, per, column, tc.encodePer, tc.encodeColumn)
		}
		if per, column := count("all-data"); per != tc.decodePer || column != tc.decodeColumn {
			t.Errorf("k%dm%d decode, every data chunk lost: %d XORs per coefficient, %d as columns; want %d and %d", tc.k, tc.m, per, column, tc.decodePer, tc.decodeColumn)
		}
	}
}
