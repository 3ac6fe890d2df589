package statedict

import (
	"encoding/binary"
	"fmt"
	"math"

	"eccheck/internal/tensor"
)

// Binary blob formats for the two small decomposition components. Both use
// uvarint length framing; they carry kilobytes, so compactness matters more
// than random access.

const (
	metaBlobMagic = 0xEC01
	keysBlobMagic = 0xEC02
)

type blobWriter struct{ buf []byte }

func (w *blobWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *blobWriter) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *blobWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *blobWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

type blobReader struct {
	buf []byte
	off int
}

func (r *blobReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("statedict: truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *blobReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("statedict: truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *blobReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("statedict: byte field of %d exceeds remaining %d", n, len(r.buf)-r.off)
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out, nil
}

func (r *blobReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *blobReader) done() bool { return r.off >= len(r.buf) }

// metaBlobSizeHint upper-bounds the encoded size of the meta entries, so a
// pooled serialization buffer can be sized to avoid growth reallocation.
func metaBlobSizeHint(entries []MetaEntry) int {
	n := 2 * binary.MaxVarintLen64
	for _, e := range entries {
		n += len(e.Key) + 3*binary.MaxVarintLen64
		switch e.Value.kind {
		case KindString:
			n += len(e.Value.s)
		case KindBytes:
			n += len(e.Value.by)
		}
	}
	return n
}

// keysBlobSizeHint upper-bounds the encoded size of the tensor keys.
func keysBlobSizeHint(entries []TensorEntry) int {
	n := 2 * binary.MaxVarintLen64
	for _, e := range entries {
		n += len(e.Key) + (3+e.Tensor.Rank())*binary.MaxVarintLen64
	}
	return n
}

func encodeMeta(entries []MetaEntry) ([]byte, error) {
	return encodeMetaInto(nil, entries)
}

// encodeMetaInto serializes into buf (appending from length zero); pass a
// pooled buffer to keep serialization off the allocator.
func encodeMetaInto(buf []byte, entries []MetaEntry) ([]byte, error) {
	w := &blobWriter{buf: buf[:0]}
	w.uvarint(metaBlobMagic)
	w.uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.str(e.Key)
		w.uvarint(uint64(e.Value.kind))
		switch e.Value.kind {
		case KindInt:
			w.varint(e.Value.i)
		case KindFloat:
			w.uvarint(math.Float64bits(e.Value.f))
		case KindString:
			w.str(e.Value.s)
		case KindBool:
			if e.Value.b {
				w.uvarint(1)
			} else {
				w.uvarint(0)
			}
		case KindBytes:
			w.bytes(e.Value.by)
		default:
			return nil, fmt.Errorf("statedict: cannot encode value of kind %v for key %q",
				e.Value.kind, e.Key)
		}
	}
	return w.buf, nil
}

func decodeMeta(blob []byte) ([]MetaEntry, error) {
	r := &blobReader{buf: blob}
	magic, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if magic != metaBlobMagic {
		return nil, fmt.Errorf("statedict: bad meta blob magic %#x", magic)
	}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(blob)) { // every entry takes bytes: do not allocate on the blob's say-so
		return nil, fmt.Errorf("statedict: meta blob of %d bytes claims %d entries", len(blob), count)
	}
	out := make([]MetaEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		key, err := r.str()
		if err != nil {
			return nil, err
		}
		kindRaw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		var v Value
		switch ValueKind(kindRaw) {
		case KindInt:
			n, err := r.varint()
			if err != nil {
				return nil, err
			}
			v = Int(n)
		case KindFloat:
			bits, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			v = Float(math.Float64frombits(bits))
		case KindString:
			s, err := r.str()
			if err != nil {
				return nil, err
			}
			v = String(s)
		case KindBool:
			b, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			v = Bool(b != 0)
		case KindBytes:
			b, err := r.bytes()
			if err != nil {
				return nil, err
			}
			v = Bytes(b)
		default:
			return nil, fmt.Errorf("statedict: unknown value kind %d for key %q", kindRaw, key)
		}
		out = append(out, MetaEntry{Key: key, Value: v})
	}
	if !r.done() {
		return nil, fmt.Errorf("statedict: %d trailing bytes in meta blob", len(blob)-r.off)
	}
	return out, nil
}

// TensorKey describes one tensor without its data: enough to re-wrap a raw
// buffer into a tensor during decode.
type TensorKey struct {
	Key   string
	DType tensor.DType
	Shape []int
}

// TensorBytes parses a KeysBlob and returns its tensors' total byte size —
// the length of a packet they are packed into back to back — with one
// allocation, the shape buffer, whatever the tensor count.
func TensorBytes(keysBlob []byte) (int, error) {
	total := 0
	err := walkTensorKeys(keysBlob, func(_ []byte, _ tensor.DType, _ []int, size int) {
		total = min(total, math.MaxInt-size) + size // saturating: no packet is that long
	})
	return total, err
}

// TensorSizes parses a KeysBlob and returns each tensor's byte size in
// order. The checkpoint engine uses this to split a worker's packed packet
// back into per-tensor buffers without any other metadata.
func TensorSizes(keysBlob []byte) ([]int, error) {
	var out []int
	err := walkTensorKeys(keysBlob, func(_ []byte, _ tensor.DType, _ []int, size int) { out = append(out, size) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

func encodeTensorKeys(entries []TensorEntry) ([]byte, error) {
	return encodeTensorKeysInto(nil, entries)
}

// encodeTensorKeysInto serializes into buf (appending from length zero).
func encodeTensorKeysInto(buf []byte, entries []TensorEntry) ([]byte, error) {
	w := &blobWriter{buf: buf[:0]}
	w.uvarint(keysBlobMagic)
	w.uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.str(e.Key)
		w.uvarint(uint64(e.Tensor.DType()))
		rank := e.Tensor.Rank()
		w.uvarint(uint64(rank))
		for i := 0; i < rank; i++ {
			w.uvarint(uint64(e.Tensor.Dim(i)))
		}
	}
	return w.buf, nil
}

func decodeTensorKeys(blob []byte) ([]TensorKey, error) {
	var out []TensorKey
	err := walkTensorKeys(blob, func(key []byte, dt tensor.DType, shape []int, _ int) {
		out = append(out, TensorKey{Key: string(key), DType: dt, Shape: append([]int(nil), shape...)})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkTensorKeys parses a KeysBlob and calls fn for each tensor in order
// with its key (a view of blob), dtype, shape (one buffer reused across
// calls, which fn must not keep) and byte size.
func walkTensorKeys(blob []byte, fn func(key []byte, dt tensor.DType, shape []int, size int)) error {
	r := blobReader{buf: blob}
	magic, err := r.uvarint()
	if err != nil {
		return err
	}
	if magic != keysBlobMagic {
		return fmt.Errorf("statedict: bad tensor-keys blob magic %#x", magic)
	}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	var dims [16]int
	for i := uint64(0); i < count; i++ {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(blob)-r.off) {
			return fmt.Errorf("statedict: byte field of %d exceeds remaining %d", n, len(blob)-r.off)
		}
		key := blob[r.off : r.off+int(n)]
		r.off += int(n)
		dtypeRaw, err := r.uvarint()
		if err != nil {
			return err
		}
		dt := tensor.DType(dtypeRaw)
		if !dt.Valid() {
			return fmt.Errorf("statedict: invalid dtype %d for tensor %q", dtypeRaw, key)
		}
		rank, err := r.uvarint()
		if err != nil {
			return err
		}
		if rank > uint64(len(dims)) {
			return fmt.Errorf("statedict: implausible rank %d for tensor %q", rank, key)
		}
		shape := dims[:rank]
		size := uint64(dt.Size())
		for d := range shape {
			s, err := r.uvarint()
			if err != nil {
				return err
			}
			// Keep the byte size a positive int.
			if s == 0 || s > math.MaxInt/size {
				return fmt.Errorf("statedict: implausible dimension %d for tensor %q", s, key)
			}
			size *= s
			shape[d] = int(s)
		}
		fn(key, dt, shape, int(size))
	}
	if !r.done() {
		return fmt.Errorf("statedict: %d trailing bytes in tensor-keys blob", len(blob)-r.off)
	}
	return nil
}
