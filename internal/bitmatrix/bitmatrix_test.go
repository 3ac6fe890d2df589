package bitmatrix

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"eccheck/internal/cauchy"
	"eccheck/internal/gf"
)

// referenceEncode computes parity chunks with plain field arithmetic under
// the bitmatrix packet layout: a chunk of size S is w packets of S/w bytes,
// and the GF(2^w) symbol at bit position t is assembled from bit t of each
// packet (bit of packet r contributes bit r of the symbol). It is the oracle
// the bitmatrix schedules must agree with.
func referenceEncode(t *testing.T, f *gf.Field, parity *gf.Matrix, data [][]byte) [][]byte {
	t.Helper()
	m, k := parity.Rows(), parity.Cols()
	w := int(f.W())
	size := len(data[0])
	psize := size / w
	nbits := psize * 8

	getBit := func(buf []byte, t int) int { return int(buf[t/8]>>(t%8)) & 1 }
	setBit := func(buf []byte, t int, v int) {
		if v != 0 {
			buf[t/8] |= 1 << (t % 8)
		}
	}
	symbol := func(chunk []byte, t int) int {
		s := 0
		for r := 0; r < w; r++ {
			s |= getBit(chunk[r*psize:(r+1)*psize], t) << r
		}
		return s
	}

	out := make([][]byte, m)
	for i := 0; i < m; i++ {
		out[i] = make([]byte, size)
		for t := 0; t < nbits; t++ {
			p := 0
			for j := 0; j < k; j++ {
				p ^= f.Mul(parity.At(i, j), symbol(data[j], t))
			}
			for r := 0; r < w; r++ {
				setBit(out[i][r*psize:(r+1)*psize], t, (p>>r)&1)
			}
		}
	}
	return out
}

func makeData(r *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	return data
}

func TestFromMatrixIdentity(t *testing.T) {
	f := gf.MustField(8)
	id, err := f.Identity(3)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := FromMatrix(f, id)
	if err != nil {
		t.Fatal(err)
	}
	if bm.rows != 24 || bm.cols != 24 {
		t.Fatalf("shape %dx%d, want 24x24", bm.rows, bm.cols)
	}
	for r := 0; r < 24; r++ {
		for c := 0; c < 24; c++ {
			if bm.At(r, c) != (r == c) {
				t.Fatalf("identity bitmatrix wrong at (%d, %d)", r, c)
			}
		}
	}
}

func TestNewInvalidShape(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("New(0,3): want error")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("New(3,-1): want error")
	}
}

// The central correctness test: bitmatrix XOR schedules (plain and smart)
// must produce exactly the same parity bytes as field-arithmetic encoding.
func TestSchedulesMatchFieldArithmetic(t *testing.T) {
	f := gf.MustField(8)
	w := int(f.W())
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ k, m int }{{2, 2}, {3, 2}, {4, 2}, {2, 3}, {5, 4}} {
		for _, improve := range []bool{false, true} {
			gen, err := cauchy.Generator(f, tc.k, tc.m, cauchy.Options{Improve: improve})
			if err != nil {
				t.Fatal(err)
			}
			parityRows := make([]int, tc.m)
			for i := range parityRows {
				parityRows[i] = tc.k + i
			}
			parity, err := gen.SubMatrix(parityRows)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := FromMatrix(f, parity)
			if err != nil {
				t.Fatal(err)
			}

			size := 16 * w // small but multiple of w
			data := makeData(r, tc.k, size)
			want := referenceEncode(t, f, parity, data)

			for name, compile := range map[string]func(*Bitmatrix, int, int, int) (*Schedule, error){
				"plain": Compile,
				"smart": CompileSmart,
			} {
				sched, err := compile(bm, tc.k, tc.m, w)
				if err != nil {
					t.Fatalf("%s k=%d m=%d: %v", name, tc.k, tc.m, err)
				}
				out := make([][]byte, tc.m)
				for i := range out {
					out[i] = make([]byte, size)
				}
				if err := sched.Execute(data, out); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range out {
					if !bytes.Equal(out[i], want[i]) {
						t.Errorf("%s improve=%v k=%d m=%d: parity %d mismatch",
							name, improve, tc.k, tc.m, i)
					}
				}
			}
		}
	}
}

func TestSmartScheduleNeverWorse(t *testing.T) {
	f := gf.MustField(8)
	w := int(f.W())
	for _, tc := range []struct{ k, m int }{{4, 2}, {6, 3}, {8, 4}, {10, 2}} {
		gen, err := cauchy.Generator(f, tc.k, tc.m, cauchy.Options{Improve: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, tc.m)
		for i := range rows {
			rows[i] = tc.k + i
		}
		parity, err := gen.SubMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := FromMatrix(f, parity)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Compile(bm, tc.k, tc.m, w)
		if err != nil {
			t.Fatal(err)
		}
		smart, err := CompileSmart(bm, tc.k, tc.m, w)
		if err != nil {
			t.Fatal(err)
		}
		if smart.XORCount() > plain.XORCount() {
			t.Errorf("k=%d m=%d: smart schedule has %d XORs > plain %d",
				tc.k, tc.m, smart.XORCount(), plain.XORCount())
		}
	}
}

func TestExecuteRangeMatchesExecute(t *testing.T) {
	f := gf.MustField(8)
	w := int(f.W())
	r := rand.New(rand.NewSource(13))
	k, m := 4, 2
	gen, err := cauchy.Generator(f, k, m, cauchy.Options{Improve: true})
	if err != nil {
		t.Fatal(err)
	}
	parity, err := gen.SubMatrix([]int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := FromMatrix(f, parity)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := CompileSmart(bm, k, m, w)
	if err != nil {
		t.Fatal(err)
	}

	size := 64 * w
	data := makeData(r, k, size)
	want := make([][]byte, m)
	for i := range want {
		want[i] = make([]byte, size)
	}
	if err := sched.Execute(data, want); err != nil {
		t.Fatal(err)
	}

	// Execute in three uneven sub-ranges of the packet.
	got := make([][]byte, m)
	for i := range got {
		got[i] = make([]byte, size)
	}
	psize := size / w
	splits := []int{0, 7, 40, psize}
	for s := 0; s+1 < len(splits); s++ {
		if err := sched.ExecuteRange(data, got, splits[s], splits[s+1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("ranged execution parity %d differs from full execution", i)
		}
	}
}

// TestTiledExecuteMatchesReference uses packets wide enough that Execute
// must split them into several cache tiles, and checks the result against
// one untiled pass of the op list and against plain field arithmetic.
func TestTiledExecuteMatchesReference(t *testing.T) {
	f := gf.MustField(8)
	w := int(f.W())
	r := rand.New(rand.NewSource(29))
	k, m := 4, 2
	gen, err := cauchy.Generator(f, k, m, cauchy.Options{Improve: true})
	if err != nil {
		t.Fatal(err)
	}
	parity, err := gen.SubMatrix([]int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := FromMatrix(f, parity)
	if err != nil {
		t.Fatal(err)
	}
	for _, compile := range []struct {
		name string
		fn   func(*Bitmatrix, int, int, int) (*Schedule, error)
	}{
		{"dumb", Compile},
		{"smart", CompileSmart},
	} {
		sched, err := compile.fn(bm, k, m, w)
		if err != nil {
			t.Fatalf("%s: %v", compile.name, err)
		}
		psize := 3*sched.tileBytes() + 123 // several tiles plus a ragged tail
		size := psize * w
		if sched.tileBytes() >= psize {
			t.Fatalf("%s: tile %d does not split packet %d — test is vacuous", compile.name, sched.tileBytes(), psize)
		}
		data := makeData(r, k, size)

		tiled := make([][]byte, m)
		untiled := make([][]byte, m)
		for i := 0; i < m; i++ {
			tiled[i] = make([]byte, size)
			untiled[i] = make([]byte, size)
		}
		if err := sched.Execute(data, tiled); err != nil {
			t.Fatalf("%s: %v", compile.name, err)
		}
		if err := sched.executeOps(data, untiled, 0, psize, psize); err != nil {
			t.Fatalf("%s: %v", compile.name, err)
		}
		want := referenceEncode(t, f, parity, data)
		for i := 0; i < m; i++ {
			if !bytes.Equal(tiled[i], untiled[i]) {
				t.Errorf("%s: tiled parity %d differs from untiled execution", compile.name, i)
			}
			if !bytes.Equal(tiled[i], want[i]) {
				t.Errorf("%s: tiled parity %d differs from field arithmetic", compile.name, i)
			}
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	f := gf.MustField(8)
	w := int(f.W())
	gen, err := cauchy.Generator(f, 2, 2, cauchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parity, err := gen.SubMatrix([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	bm, err := FromMatrix(f, parity)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(bm, 2, 2, w)
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

	if err := sched.Execute(good(1, 16), good(2, 16)); err == nil {
		t.Error("wrong data chunk count: want error")
	}
	if err := sched.Execute(good(2, 16), good(1, 16)); err == nil {
		t.Error("wrong output chunk count: want error")
	}
	if err := sched.Execute(good(2, 15), good(2, 15)); err == nil {
		t.Error("size not divisible by w: want error")
	}
	data := good(2, 16)
	data[1] = make([]byte, 24)
	if err := sched.Execute(data, good(2, 16)); err == nil {
		t.Error("ragged data chunks: want error")
	}
	if err := sched.ExecuteRange(good(2, 16), good(2, 16), 1, 0); err == nil {
		t.Error("inverted range: want error")
	}
	if err := sched.ExecuteRange(good(2, 16), good(2, 16), 0, 3); err == nil {
		t.Error("range beyond packet: want error")
	}
}

func TestCompileShapeMismatch(t *testing.T) {
	bm, err := New(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(bm, 3, 2, 8); err == nil {
		t.Error("shape mismatch: want error")
	}
	if _, err := CompileSmart(bm, 3, 2, 8); err == nil {
		t.Error("shape mismatch: want error")
	}
}

func TestCompileEmptyRowFails(t *testing.T) {
	bm, err := New(8, 8) // all zero: every output row empty
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(bm, 1, 1, 8); err == nil {
		t.Error("empty output row: want error")
	}
	if _, err := CompileSmart(bm, 1, 1, 8); err == nil {
		t.Error("empty output row: want error")
	}
}

// executeUnfused is the reference executor: every op on its own, a copy or
// a two-operand XOR over the whole packet, no tiles and no fusion.
func executeUnfused(t *testing.T, s *Schedule, data, out [][]byte) {
	t.Helper()
	psize := len(data[0]) / s.W
	packet := func(chunk, pkt int) []byte {
		buf := data
		if chunk >= s.K {
			buf, chunk = out, chunk-s.K
		}
		return buf[chunk][pkt*psize : (pkt+1)*psize]
	}
	for _, op := range s.Ops {
		dst, src := packet(op.DstChunk, op.DstPacket), packet(op.SrcChunk, op.SrcPacket)
		if op.Kind == OpCopy {
			copy(dst, src)
		} else if err := gf.XORSlice(dst, src); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeSchedules compiles the parity rows of the (k, m) generator the way
// erasure.New does, plain and smart.
func encodeSchedules(t *testing.T, f *gf.Field, k, m int) map[string]*Schedule {
	t.Helper()
	gen, err := cauchy.Generator(f, k, m, cauchy.Options{Improve: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, m)
	for i := range rows {
		rows[i] = k + i
	}
	parity, err := gen.SubMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	return compileBoth(t, f, parity)
}

// compileBoth compiles mat's bitmatrix both ways, keyed "plain" and "smart".
func compileBoth(t *testing.T, f *gf.Field, mat *gf.Matrix) map[string]*Schedule {
	t.Helper()
	bm, err := FromMatrix(f, mat)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Schedule{}
	for name, compile := range map[string]func(*Bitmatrix, int, int, int) (*Schedule, error){
		"plain": Compile,
		"smart": CompileSmart,
	} {
		s, err := compile(bm, mat.Cols(), mat.Rows(), int(f.W()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

// runChecked executes s through Execute and through ExecuteRange split at
// uneven offsets, and fails unless both equal want. It also fails if
// execution touched the program: fusion happens at run time only, so Ops
// and XORCount are what Compile emitted.
func runChecked(t *testing.T, name string, s *Schedule, data [][]byte, want [][]byte) {
	t.Helper()
	ops, xors := append([]Op(nil), s.Ops...), s.XORCount()
	size := len(data[0])
	psize := size / s.W
	// nil splits: Execute; otherwise ExecuteRange over each [splits[i], splits[i+1]).
	for _, splits := range [][]int{nil, {0, 7, psize / 2, psize - 1, psize}} {
		got := make([][]byte, len(want))
		for i := range got {
			got[i] = make([]byte, size)
		}
		if splits == nil {
			if err := s.Execute(data, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i+1 < len(splits); i++ {
			if err := s.ExecuteRange(data, got, splits[i], splits[i+1]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s splits %v: output %d mismatch", name, splits, i)
			}
		}
	}
	if s.XORCount() != xors || len(s.Ops) != len(ops) {
		t.Fatalf("%s: execution changed the program: %d ops / %d XORs, was %d / %d", name, len(s.Ops), s.XORCount(), len(ops), xors)
	}
	for i := range ops {
		if s.Ops[i] != ops[i] {
			t.Fatalf("%s: execution changed op %d", name, i)
		}
	}
}

// TestScalarSchedulesMatchMul runs the schedule of every nonzero GF(2^8)
// coefficient — the only schedules a save or restore round executes — plain
// and smart, whole and split into ranges, against per-symbol f.Mul.
func TestScalarSchedulesMatchMul(t *testing.T) {
	f := gf.MustField(8)
	r := rand.New(rand.NewSource(31))
	data := makeData(r, 1, 8*203) // 203-byte packets: vector body plus both tails
	for c := 1; c < 256; c++ {
		mat, err := f.NewMatrix(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		mat.Set(0, 0, c)
		want := referenceEncode(t, f, mat, data)
		for name, s := range compileBoth(t, f, mat) {
			runChecked(t, fmt.Sprintf("coef %d %s", c, name), s, data, want)
		}
	}
}

// TestFusedEncodeMatchesUnfused runs the k2m2, k4m4 and k8m8 encode
// schedules over packets wider than three tiles against op-by-op execution,
// and pins their XOR counts (bitmatrix.xors_per_encode_* of the benchmark).
func TestFusedEncodeMatchesUnfused(t *testing.T) {
	f := gf.MustField(8)
	r := rand.New(rand.NewSource(37))
	wantXORs := map[[2]int]map[string]int{
		{2, 2}: {"plain": 26, "smart": 20},
		{4, 4}: {"plain": 283, "smart": 245},
		{8, 8}: {"plain": 1482, "smart": 1297},
	}
	for _, km := range [][2]int{{2, 2}, {4, 4}, {8, 8}} {
		for name, s := range encodeSchedules(t, f, km[0], km[1]) {
			label := fmt.Sprintf("k%dm%d %s", km[0], km[1], name)
			if got := s.XORCount(); got != wantXORs[km][name] {
				t.Errorf("%s: XORCount %d, want %d", label, got, wantXORs[km][name])
			}
			size := (3*s.tileBytes() + 123) * s.W
			data := makeData(r, km[0], size)
			want := make([][]byte, km[1])
			for i := range want {
				want[i] = make([]byte, size)
			}
			executeUnfused(t, s, data, want)
			runChecked(t, label, s, data, want)
		}
	}
}

// TestFusionKeepsOpOrder: a copy followed by an XOR whose source is the
// destination packet itself is not fused — run in order, the XOR reads what
// the copy wrote and the packet ends up zero.
func TestFusionKeepsOpOrder(t *testing.T) {
	s := &Schedule{W: 1, K: 1, DstChunks: 1, Ops: []Op{
		{Kind: OpCopy, SrcChunk: 0, DstChunk: 1},
		{Kind: OpXOR, SrcChunk: 1, DstChunk: 1},
	}}
	data, out := [][]byte{{1, 2, 3}}, [][]byte{{9, 9, 9}}
	if err := s.Execute(data, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0], []byte{0, 0, 0}) {
		t.Fatalf("copy then self-XOR = %v, want zeros", out[0])
	}
}
