package statedict

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"eccheck/internal/tensor"
)

// Decoders must reject arbitrary garbage with an error, never panic or
// return corrupt entries silently: these blobs cross the network during
// recovery and may come from half-written host memory.
func TestDecodeMetaNeverPanicsOnGarbage(t *testing.T) {
	prop := func(blob []byte) bool {
		// Any outcome is fine except a panic; quick.Check surfaces panics
		// as test failures automatically.
		_, _ = decodeMeta(blob)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTensorKeysNeverPanicsOnGarbage(t *testing.T) {
	prop := func(blob []byte) bool {
		_, _ = decodeTensorKeys(blob)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Truncations of a valid blob must all error (no partial-success decode).
func TestDecodeMetaTruncationsAllFail(t *testing.T) {
	entries := []MetaEntry{
		{Key: "iteration", Value: Int(12345)},
		{Key: "name", Value: String("run-7")},
		{Key: "blob", Value: Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8})},
	}
	blob, err := encodeMeta(entries)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(blob); cut++ {
		if _, err := decodeMeta(blob[:cut]); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}

func TestTensorSizesOnGarbage(t *testing.T) {
	if _, err := TensorSizes([]byte{0xde, 0xad}); err == nil {
		t.Error("garbage keys blob: want error")
	}
}

// The two small components cross the network during recovery and are read
// back from host memory a failed machine may have half-written, so their
// decoders are fuzzed directly, seeded from a real decomposition. Whatever the
// bytes, a decoder returns an error or entries — never a panic — and what it
// allocates follows the size of the input, not a count or length field inside
// it. Whatever decodes re-encodes to a blob that decodes to equal entries and
// re-encodes to itself.

// allocBound runs fn and fails if it allocated far more than the input it was
// given: a decoded entry is a few machine words, and every entry takes at
// least one input byte, so 128 bytes per input byte plus a constant.
func allocBound(t *testing.T, input int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*input+1<<16); got > limit {
		t.Fatalf("decoding %d input bytes allocated %d bytes, limit %d", input, got, limit)
	}
}

// seedDecomposition is a worker's state dict with a value of every kind and
// tensors of several dtypes and ranks, decomposed as a save round does.
func seedDecomposition(f *testing.F) *Decomposition {
	sd := New()
	sd.SetMeta("iteration", Int(-12345))
	sd.SetMeta("lr", Float(3e-4))
	sd.SetMeta("name", String("run-7"))
	sd.SetMeta("frozen", Bool(true))
	sd.SetMeta("rng", Bytes([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	for i, spec := range []struct {
		dt    tensor.DType
		shape []int
	}{{tensor.Float32, []int{4, 8}}, {tensor.BFloat16, []int{16}}, {tensor.Int64, []int{2, 3, 5}}} {
		tn, err := tensor.New(spec.dt, spec.shape...)
		if err != nil {
			f.Fatal(err)
		}
		tn.FillPattern(uint64(i))
		if err := sd.SetTensor(fmt.Sprintf("layer.%d", i), tn); err != nil {
			f.Fatal(err)
		}
	}
	dec, err := sd.Decompose()
	if err != nil {
		f.Fatal(err)
	}
	return dec
}

// sameValue is Value.Equal with floats compared by their bits, so a NaN
// survives the round trip as itself.
func sameValue(a, b Value) bool {
	if a.kind == KindFloat && b.kind == KindFloat {
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	}
	return a.Equal(b)
}

func FuzzDecodeMeta(f *testing.F) {
	dec := seedDecomposition(f)
	f.Add(dec.MetaBlob)
	f.Add(dec.MetaBlob[:len(dec.MetaBlob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		var entries []MetaEntry
		var err error
		allocBound(t, len(blob), func() { entries, err = decodeMeta(blob) })
		if err != nil {
			return
		}
		again, err := encodeMeta(entries)
		if err != nil {
			t.Fatalf("decoded entries do not re-encode: %v", err)
		}
		round, err := decodeMeta(again)
		if err != nil || len(round) != len(entries) {
			t.Fatalf("re-encoded blob decodes to %d entries of %d: %v", len(round), len(entries), err)
		}
		for i := range entries {
			if round[i].Key != entries[i].Key || !sameValue(round[i].Value, entries[i].Value) {
				t.Fatalf("entry %d: %q=%v re-decodes as %q=%v", i, entries[i].Key, entries[i].Value, round[i].Key, round[i].Value)
			}
		}
		if third, err := encodeMeta(round); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %v", err)
		}
	})
}

// encodeKeys re-encodes decoded tensor keys in encodeTensorKeys' format. It
// takes the keys themselves, because a key's shape may describe more bytes
// than a tensor could be allocated for; the fuzz target checks it against
// encodeTensorKeys on the seed.
func encodeKeys(keys []TensorKey) []byte {
	w := &blobWriter{}
	w.uvarint(keysBlobMagic)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k.Key)
		w.uvarint(uint64(k.DType))
		w.uvarint(uint64(len(k.Shape)))
		for _, d := range k.Shape {
			w.uvarint(uint64(d))
		}
	}
	return w.buf
}

func FuzzDecodeTensorKeys(f *testing.F) {
	dec := seedDecomposition(f)
	if keys, err := decodeTensorKeys(dec.KeysBlob); err != nil || !bytes.Equal(encodeKeys(keys), dec.KeysBlob) {
		f.Fatalf("the test's key encoder does not reproduce encodeTensorKeys: %v", err)
	}
	f.Add(dec.KeysBlob)
	f.Add(dec.KeysBlob[:len(dec.KeysBlob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		var keys []TensorKey
		var err error
		allocBound(t, len(blob), func() { keys, err = decodeTensorKeys(blob) })
		if err != nil {
			return
		}
		sizes, err := TensorSizes(blob)
		if err != nil || len(sizes) != len(keys) {
			t.Fatalf("TensorSizes = %v, %v over a blob that decodes to %d keys", sizes, err, len(keys))
		}
		for i, size := range sizes {
			if size <= 0 {
				t.Fatalf("tensor %q decodes with %d bytes", keys[i].Key, size)
			}
		}
		again := encodeKeys(keys)
		round, err := decodeTensorKeys(again)
		if err != nil || !reflect.DeepEqual(round, keys) {
			t.Fatalf("re-encoded keys decode to %v, want %v: %v", round, keys, err)
		}
		if third := encodeKeys(round); !bytes.Equal(third, again) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
