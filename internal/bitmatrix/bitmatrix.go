// Package bitmatrix converts GF(2^w) matrices into their binary expansions
// and compiles those expansions into XOR schedules, enabling XOR-only Cauchy
// Reed-Solomon coding: the technique ECCheck adopts so that checkpoint
// encoding touches memory only with wide XOR operations.
//
// An element e of GF(2^w) expands to a w×w binary matrix B(e) whose column c
// holds the bit representation of e·α^c. Multiplying a region by e then
// becomes XORs of w equally sized "packets" of the region, selected by the
// ones of B(e).
package bitmatrix

import (
	"fmt"
	"math/bits"

	"eccheck/internal/gf"
)

// Bitmatrix is a dense binary matrix. It is the w-fold binary expansion of a
// matrix over GF(2^w): a source matrix of shape R×C expands to shape
// (R·w)×(C·w).
type Bitmatrix struct {
	rows int
	cols int
	bits []uint8 // row-major, one byte per bit for simplicity of indexing
}

// New returns a zero bitmatrix of the given shape.
func New(rows, cols int) (*Bitmatrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("bitmatrix: invalid shape %dx%d", rows, cols)
	}
	return &Bitmatrix{rows: rows, cols: cols, bits: make([]uint8, rows*cols)}, nil
}

// At reports whether the bit at (r, c) is set.
func (b *Bitmatrix) At(r, c int) bool { return b.bits[r*b.cols+c] != 0 }

// Set assigns the bit at (r, c).
func (b *Bitmatrix) Set(r, c int, v bool) {
	if v {
		b.bits[r*b.cols+c] = 1
	} else {
		b.bits[r*b.cols+c] = 0
	}
}

// packedRows returns every row packed into uint64 words for fast Hamming
// distance, in one allocation: row r is words [r·n, (r+1)·n) of the result,
// n = ⌈cols/64⌉.
func (b *Bitmatrix) packedRows() (rows []uint64, n int) {
	n = (b.cols + 63) / 64
	rows = make([]uint64, b.rows*n)
	for i, bit := range b.bits {
		if bit != 0 {
			r, c := i/b.cols, i%b.cols
			rows[r*n+c/64] |= 1 << (c % 64)
		}
	}
	return rows, n
}

// FromMatrix expands a matrix over GF(2^w) into its bitmatrix form.
func FromMatrix(f *gf.Field, m *gf.Matrix) (*Bitmatrix, error) {
	w := int(f.W())
	out, err := New(m.Rows()*w, m.Cols()*w)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			v := m.At(i, j)
			for c := 0; c < w; c++ {
				for r := 0; r < w; r++ {
					if v&(1<<r) != 0 {
						out.Set(i*w+r, j*w+c, true)
					}
				}
				v = f.Mul(v, 2)
			}
		}
	}
	return out, nil
}

// OpKind distinguishes schedule operations.
type OpKind int

// Schedule operation kinds. The first write into a destination packet is a
// copy; subsequent writes accumulate with XOR. OpZero clears its destination
// packet and reads no source: the output of a zero coefficient.
const (
	OpCopy OpKind = iota + 1
	OpXOR
	OpZero
)

// Op is one step of an XOR schedule: combine source packet
// (SrcChunk, SrcPacket) into destination packet (DstChunk, DstPacket).
// Source chunk indices address the k data chunks when < k and previously
// computed destination chunks when >= k (used by smart schedules that derive
// one parity packet from another).
type Op struct {
	Kind      OpKind
	SrcChunk  int
	SrcPacket int
	DstChunk  int
	DstPacket int
}

// Schedule is an ordered XOR program computing dstRows output packets from
// k·w input packets.
type Schedule struct {
	// W is the packets-per-chunk factor (the field word size).
	W int
	// K is the number of input (data) chunks.
	K int
	// DstChunks is the number of output chunks the schedule produces.
	DstChunks int
	// Ops is the program, executed in order.
	Ops []Op
}

// XORCount returns the number of OpXOR steps, the dominant cost of encoding.
func (s *Schedule) XORCount() int {
	n := 0
	for _, op := range s.Ops {
		if op.Kind == OpXOR {
			n++
		}
	}
	return n
}

// Compile turns the parity part of a bitmatrix (shape (m·w)×(k·w)) into a
// straightforward schedule: each destination packet is a copy of its first
// contributing source packet followed by XORs of the rest.
func Compile(bm *Bitmatrix, k, m, w int) (*Schedule, error) {
	if bm.rows != m*w || bm.cols != k*w {
		return nil, fmt.Errorf("bitmatrix: schedule shape mismatch: bitmatrix %dx%d, want %dx%d",
			bm.rows, bm.cols, m*w, k*w)
	}
	s := &Schedule{W: w, K: k, DstChunks: m}
	for r := 0; r < m*w; r++ {
		first := true
		for c := 0; c < k*w; c++ {
			if !bm.At(r, c) {
				continue
			}
			kind := OpXOR
			if first {
				kind = OpCopy
				first = false
			}
			s.Ops = append(s.Ops, Op{
				Kind:      kind,
				SrcChunk:  c / w,
				SrcPacket: c % w,
				DstChunk:  k + r/w,
				DstPacket: r % w,
			})
		}
		if first {
			return nil, fmt.Errorf("bitmatrix: output row %d has no contributing inputs", r)
		}
	}
	return s, nil
}

// CompileSmart builds a schedule that may derive an output packet from a
// previously computed output packet when their bitmatrix rows are similar
// (differ in fewer positions than the row has ones). This is the classic
// "smart scheduling" optimisation for CRS codes and reduces XOR count for
// dense Cauchy rows.
func CompileSmart(bm *Bitmatrix, k, m, w int) (*Schedule, error) {
	if bm.rows != m*w || bm.cols != k*w {
		return nil, fmt.Errorf("bitmatrix: schedule shape mismatch: bitmatrix %dx%d, want %dx%d",
			bm.rows, bm.cols, m*w, k*w)
	}
	s := &Schedule{W: w, K: k, DstChunks: m}
	packed, n := bm.packedRows()
	row := func(r int) []uint64 { return packed[r*n : (r+1)*n] }

	for r := 0; r < m*w; r++ {
		cur := row(r)
		ones := 0
		for _, word := range cur {
			ones += bits64(word)
		}
		if ones == 0 {
			return nil, fmt.Errorf("bitmatrix: output row %d has no contributing inputs", r)
		}

		// Find the cheapest base: either from scratch (cost = ones) or
		// derived from an earlier output row (cost = hamming distance + 1).
		bestBase := -1
		bestCost := ones
		for d := 0; d < r; d++ {
			dist := 0
			for i, word := range row(d) {
				dist += bits64(cur[i] ^ word)
			}
			if dist+1 < bestCost {
				bestCost = dist + 1
				bestBase = d
			}
		}

		dst := Op{DstChunk: k + r/w, DstPacket: r % w}
		if bestBase >= 0 {
			// Copy the base output packet, then XOR the differing inputs.
			base := row(bestBase)
			op := dst
			op.Kind = OpCopy
			op.SrcChunk = k + bestBase/w
			op.SrcPacket = bestBase % w
			s.Ops = append(s.Ops, op)
			for c := 0; c < k*w; c++ {
				if (cur[c/64]>>(c%64))&1 != (base[c/64]>>(c%64))&1 {
					op := dst
					op.Kind = OpXOR
					op.SrcChunk = c / w
					op.SrcPacket = c % w
					s.Ops = append(s.Ops, op)
				}
			}
		} else {
			first := true
			for c := 0; c < k*w; c++ {
				if (cur[c/64]>>(c%64))&1 == 0 {
					continue
				}
				op := dst
				op.Kind = OpXOR
				if first {
					op.Kind = OpCopy
					first = false
				}
				op.SrcChunk = c / w
				op.SrcPacket = c % w
				s.Ops = append(s.Ops, op)
			}
		}
	}
	return s, nil
}

func bits64(v uint64) int { return bits.OnesCount64(v) }

// Tiling parameters for cache-blocked schedule execution. A schedule walks
// its full op list once per tile; within a tile, every packet slice it
// touches is at most tile-width bytes, so the working set of one pass is
// roughly (K + DstChunks) · W · tileBytes. tileTargetBytes budgets that
// working set to fit in L1/L2 so packets reused across ops (smart schedules
// rewrite parity packets repeatedly) hit cache instead of streaming from
// DRAM.
const (
	tileTargetBytes = 256 << 10
	minTileBytes    = 4 << 10
)

// tileBytes returns the per-packet tile width for this schedule.
func (s *Schedule) tileBytes() int {
	packets := (s.K + s.DstChunks) * s.W
	if packets <= 0 {
		return minTileBytes
	}
	t := tileTargetBytes / packets
	if t < minTileBytes {
		t = minTileBytes
	}
	return t
}

// Execute runs the schedule over real memory. data holds the K source
// chunks; out holds DstChunks destination chunks. Every chunk must have the
// same length, divisible by W so it splits into W packets. Execution is
// cache-blocked: see tileBytes.
func (s *Schedule) Execute(data, out [][]byte) error {
	if len(data) == 0 {
		return s.ExecuteRange(data, out, 0, 0)
	}
	return s.ExecuteRange(data, out, 0, len(data[0])/s.W)
}

// ExecuteRange runs the schedule over the byte range [lo, hi) of each
// packet, allowing one encode to be split across a worker pool. lo and hi
// are offsets within a packet (0 <= lo <= hi <= packetSize). Every chunk
// must have the same length, divisible by W, as for Execute: a short one is
// an error, never an out-of-range slice on a pool worker. The range is
// processed in cache-sized tiles (see tileBytes): the op list runs once per
// tile so intermediate packets stay resident between ops.
func (s *Schedule) ExecuteRange(data, out [][]byte, lo, hi int) error {
	if len(data) != s.K {
		return fmt.Errorf("bitmatrix: execute with %d data chunks, want %d", len(data), s.K)
	}
	if len(out) != s.DstChunks {
		return fmt.Errorf("bitmatrix: execute with %d output chunks, want %d", len(out), s.DstChunks)
	}
	if len(data) == 0 || len(out) == 0 {
		return nil
	}
	size := len(data[0])
	if size%s.W != 0 {
		return fmt.Errorf("bitmatrix: chunk size %d not divisible by w=%d", size, s.W)
	}
	for i, d := range data {
		if len(d) != size {
			return fmt.Errorf("bitmatrix: data chunk %d has size %d, want %d", i, len(d), size)
		}
	}
	for i, p := range out {
		if len(p) != size {
			return fmt.Errorf("bitmatrix: output chunk %d has size %d, want %d", i, len(p), size)
		}
	}
	psize := size / s.W
	if lo < 0 || hi > psize || lo > hi {
		return fmt.Errorf("bitmatrix: invalid packet range [%d, %d) for packet size %d", lo, hi, psize)
	}
	tile := s.tileBytes()
	for t := lo; t < hi; t += tile {
		th := t + tile
		if th > hi {
			th = hi
		}
		if err := s.executeOps(data, out, t, th, psize); err != nil {
			return err
		}
	}
	return nil
}

// executeOps runs the full op list over the packet byte range [lo, hi).
// Shapes and bounds are already validated by the caller.
func (s *Schedule) executeOps(data, out [][]byte, lo, hi, psize int) error {
	packet := func(chunk, pkt int) ([]byte, error) {
		var buf []byte
		switch {
		case chunk < s.K:
			buf = data[chunk]
		case chunk < s.K+s.DstChunks:
			buf = out[chunk-s.K]
		default:
			return nil, fmt.Errorf("bitmatrix: chunk index %d out of range", chunk)
		}
		base := pkt * psize
		return buf[base+lo : base+hi], nil
	}

	ops := s.Ops
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		src, err := packet(op.SrcChunk, op.SrcPacket)
		if err != nil {
			return err
		}
		dst, err := packet(op.DstChunk, op.DstPacket)
		if err != nil {
			return err
		}
		switch op.Kind {
		case OpCopy:
			// A row's copy and the XOR after it into the same packet run as
			// one three-operand pass, so dst is written once, not twice. The
			// XOR's source must not be dst itself: the copy overwrites it.
			if i+1 < len(ops) {
				next := ops[i+1]
				if next.Kind == OpXOR && next.DstChunk == op.DstChunk && next.DstPacket == op.DstPacket &&
					(next.SrcChunk != op.DstChunk || next.SrcPacket != op.DstPacket) {
					src2, err := packet(next.SrcChunk, next.SrcPacket)
					if err != nil {
						return err
					}
					if err := gf.XORInto(dst, src, src2); err != nil {
						return err
					}
					i++
					continue
				}
			}
			copy(dst, src)
		case OpXOR:
			if err := gf.XORSlice(dst, src); err != nil {
				return err
			}
		case OpZero:
			clear(dst)
		default:
			return fmt.Errorf("bitmatrix: unknown op kind %d", op.Kind)
		}
	}
	return nil
}
