package erasure

import (
	"fmt"
	"testing"

	"eccheck/internal/gf"
)

func benchChunks(k, m, size int) (data, parity [][]byte) {
	data = make([][]byte, k)
	parity = make([][]byte, m)
	for i := range data {
		data[i] = make([]byte, size)
		for j := 0; j < size; j += 64 {
			data[i][j] = byte(i*7 + j)
		}
	}
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	return data, parity
}

func BenchmarkEncode(b *testing.B) {
	for _, km := range [][2]int{{2, 2}, {4, 2}, {8, 4}} {
		b.Run(fmt.Sprintf("k%d_m%d", km[0], km[1]), func(b *testing.B) {
			code, err := New(km[0], km[1])
			if err != nil {
				b.Fatal(err)
			}
			size := code.ChunkAlign(4 << 20)
			data, parity := benchChunks(km[0], km[1], size)
			b.SetBytes(int64(km[0] * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := code.Encode(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeScheduleVariants(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithImprovedMatrix(false), WithSmartSchedule(false)}},
		{"improved", []Option{WithImprovedMatrix(true), WithSmartSchedule(false)}},
		{"smart", []Option{WithImprovedMatrix(true), WithSmartSchedule(true)}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			code, err := New(4, 2, variant.opts...)
			if err != nil {
				b.Fatal(err)
			}
			size := code.ChunkAlign(4 << 20)
			data, parity := benchChunks(4, 2, size)
			b.SetBytes(int64(4 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := code.Encode(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	code, err := New(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	size := code.ChunkAlign(4 << 20)
	data, parity := benchChunks(4, 2, size)
	if err := code.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(int64(2 * size)) // two chunks rebuilt
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(full))
		copy(work, full)
		work[0], work[2] = nil, nil
		if err := code.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalarMul times dst = coef·src, and dst ^= coef·src both as one
// ScalarMulAdd pass and as the ScalarMulInto-then-XORSlice it replaces.
func BenchmarkScalarMul(b *testing.B) {
	code, err := New(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	size := code.ChunkAlign(4 << 20)
	src := make([]byte, size)
	dst := make([]byte, size)
	term := make([]byte, size)
	coef, err := code.ParityCoefficient(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	if coef <= 1 { // pick a non-trivial coefficient
		coef, err = code.ParityCoefficient(1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range []struct {
		name string
		op   func() error
	}{
		{"mul", func() error { return code.ScalarMulInto(coef, dst, src) }},
		{"muladd", func() error { return code.ScalarMulAdd(coef, dst, src) }},
		{"mul_then_xor", func() error {
			if err := code.ScalarMulInto(coef, term, src); err != nil {
				return err
			}
			return gf.XORSlice(dst, term)
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := v.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumn times one window times a data group's m parity
// coefficients — what a save worker computes per window — as m
// per-coefficient ScalarMulInto passes and as one column product. Run it
// with -cpu 1: both forms are serial.
func BenchmarkColumn(b *testing.B) {
	for _, tc := range []struct {
		k, m, window int
	}{{8, 8, 64 << 10}, {2, 2, 1 << 20}} {
		code, err := New(tc.k, tc.m)
		if err != nil {
			b.Fatal(err)
		}
		coefs := make([]int, tc.m)
		for i := range coefs {
			if coefs[i], err = code.ParityCoefficient(i, 0); err != nil {
				b.Fatal(err)
			}
		}
		col, err := code.Column(coefs)
		if err != nil {
			b.Fatal(err)
		}
		src := make([]byte, tc.window)
		for i := range src {
			src[i] = byte(i * 7)
		}
		out := make([][]byte, tc.m)
		for i := range out {
			out[i] = make([]byte, tc.window)
		}
		data := [][]byte{src}
		for _, v := range []struct {
			name string
			op   func() error
		}{
			{"per_coefficient", func() error {
				for i, coef := range coefs {
					if err := code.ScalarMulInto(coef, out[i], src); err != nil {
						return err
					}
				}
				return nil
			}},
			{"column", func() error { return col.Execute(data, out) }},
		} {
			b.Run(fmt.Sprintf("k%dm%d_%dKiB/%s", tc.k, tc.m, tc.window>>10, v.name), func(b *testing.B) {
				b.SetBytes(int64(tc.window))
				for i := 0; i < b.N; i++ {
					if err := v.op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
