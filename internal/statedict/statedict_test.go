package statedict

import (
	"bytes"
	"testing"
	"testing/quick"

	"eccheck/internal/bufpool"
	"eccheck/internal/tensor"
)

func sampleDict(t *testing.T) *StateDict {
	t.Helper()
	sd := New()
	sd.SetMeta("iteration", Int(12345))
	sd.SetMeta("version", String("v2.1"))
	sd.SetMeta("lr", Float(0.00015))
	sd.SetMeta("amp", Bool(true))
	sd.SetMeta("rng_state", Bytes([]byte{1, 2, 3, 4, 5}))

	for i, spec := range []struct {
		key   string
		dt    tensor.DType
		shape []int
	}{
		{"layer.0.weight", tensor.Float32, []int{16, 16}},
		{"layer.0.bias", tensor.Float32, []int{16}},
		{"opt.exp_avg.0", tensor.Float32, []int{16, 16}},
		{"opt.exp_avg_sq.0", tensor.Float32, []int{16, 16}},
		{"embed", tensor.Float16, []int{32, 8}},
	} {
		ts, err := tensor.New(spec.dt, spec.shape...)
		if err != nil {
			t.Fatal(err)
		}
		ts.FillPattern(uint64(i + 1))
		if err := sd.SetTensor(spec.key, ts); err != nil {
			t.Fatal(err)
		}
	}
	return sd
}

func TestMetaSetGetReplace(t *testing.T) {
	sd := New()
	sd.SetMeta("iter", Int(1))
	sd.SetMeta("iter", Int(2))
	v, ok := sd.Meta("iter")
	if !ok {
		t.Fatal("meta key missing")
	}
	got, err := v.AsInt()
	if err != nil || got != 2 {
		t.Errorf("iter = %d, %v; want 2", got, err)
	}
	if sd.NumMeta() != 1 {
		t.Errorf("NumMeta() = %d after replace, want 1", sd.NumMeta())
	}
	if _, ok := sd.Meta("absent"); ok {
		t.Error("absent key found")
	}
}

func TestTensorSetGetReplace(t *testing.T) {
	sd := New()
	a, _ := tensor.New(tensor.Float32, 2)
	b, _ := tensor.New(tensor.Float32, 3)
	if err := sd.SetTensor("w", a); err != nil {
		t.Fatal(err)
	}
	if err := sd.SetTensor("w", b); err != nil {
		t.Fatal(err)
	}
	got, ok := sd.Tensor("w")
	if !ok || got.Numel() != 3 {
		t.Error("tensor replace failed")
	}
	if sd.NumTensors() != 1 {
		t.Errorf("NumTensors() = %d, want 1", sd.NumTensors())
	}
	if err := sd.SetTensor("bad", nil); err == nil {
		t.Error("nil tensor: want error")
	}
}

func TestOrderPreserved(t *testing.T) {
	sd := New()
	keys := []string{"z", "a", "m", "b"}
	for _, k := range keys {
		ts, _ := tensor.New(tensor.Float32, 1)
		if err := sd.SetTensor(k, ts); err != nil {
			t.Fatal(err)
		}
	}
	entries := sd.TensorEntries()
	for i, k := range keys {
		if entries[i].Key != k {
			t.Errorf("entry %d = %q, want %q (insertion order)", i, entries[i].Key, k)
		}
	}
}

func TestTensorBytes(t *testing.T) {
	sd := sampleDict(t)
	want := 16*16*4 + 16*4 + 16*16*4 + 16*16*4 + 32*8*2
	if got := sd.TensorBytes(); got != want {
		t.Errorf("TensorBytes() = %d, want %d", got, want)
	}
}

func TestCloneEqualIndependence(t *testing.T) {
	sd := sampleDict(t)
	cp := sd.Clone()
	if !sd.Equal(cp) {
		t.Fatal("clone not equal")
	}
	ts, _ := cp.Tensor("embed")
	ts.Data()[0] ^= 0xFF
	if sd.Equal(cp) {
		t.Error("mutating clone tensor affected equality with original")
	}
	orig, _ := sd.Tensor("embed")
	if orig.Data()[0] == ts.Data()[0] {
		t.Error("clone shares tensor storage")
	}
}

func TestDecomposeReassembleRoundTrip(t *testing.T) {
	sd := sampleDict(t)
	dec, err := sd.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.TensorData) != sd.NumTensors() {
		t.Fatalf("TensorData has %d buffers, want %d", len(dec.TensorData), sd.NumTensors())
	}
	if dec.TensorBytes() != sd.TensorBytes() {
		t.Errorf("decomposition tensor bytes %d != dict %d", dec.TensorBytes(), sd.TensorBytes())
	}

	rebuilt, err := Reassemble(dec.MetaBlob, dec.KeysBlob, dec.TensorData)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Equal(rebuilt) {
		t.Error("round trip produced different dict")
	}
}

// DecomposeWith must produce byte-identical blobs from pooled buffers, and
// those blobs must round-trip through Reassemble.
func TestDecomposeWithPoolMatchesDecompose(t *testing.T) {
	sd := sampleDict(t)
	plain, err := sd.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	pool := bufpool.New()
	pooled, err := sd.DecomposeWith(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.MetaBlob, pooled.MetaBlob) || !bytes.Equal(plain.KeysBlob, pooled.KeysBlob) {
		t.Fatal("pooled decomposition blobs differ from allocator path")
	}
	rebuilt, err := Reassemble(pooled.MetaBlob, pooled.KeysBlob, pooled.TensorData)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Equal(rebuilt) {
		t.Error("pooled round trip produced different dict")
	}
	pool.Put(pooled.MetaBlob)
	pool.Put(pooled.KeysBlob)
}

// The decomposition must be zero-copy: buffers alias the dict tensors.
func TestDecomposeAliasesTensorData(t *testing.T) {
	sd := sampleDict(t)
	dec, err := sd.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	dec.TensorData[0][0] ^= 0xAA
	ts, _ := sd.Tensor("layer.0.weight")
	if ts.Data()[0] != dec.TensorData[0][0] {
		t.Error("decomposition copied tensor data; protocol requires aliasing")
	}
}

// The paper's observation: small components are negligible versus tensor
// data. Verify the decomposition exposes that skew for a realistic dict.
func TestSmallComponentSkew(t *testing.T) {
	sd := New()
	sd.SetMeta("iteration", Int(500))
	big, err := tensor.New(tensor.Float32, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.SetTensor("weight", big); err != nil {
		t.Fatal(err)
	}
	dec, err := sd.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if dec.SmallBytes()*100 > dec.TensorBytes() {
		t.Errorf("small components %dB are not negligible vs tensor %dB",
			dec.SmallBytes(), dec.TensorBytes())
	}
}

func TestReassembleValidation(t *testing.T) {
	sd := sampleDict(t)
	dec, err := sd.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reassemble(dec.MetaBlob, dec.KeysBlob, dec.TensorData[:2]); err == nil {
		t.Error("buffer count mismatch: want error")
	}
	if _, err := Reassemble([]byte{0xFF, 0xFF}, dec.KeysBlob, dec.TensorData); err == nil {
		t.Error("bad meta magic: want error")
	}
	if _, err := Reassemble(dec.MetaBlob, []byte{0x00}, dec.TensorData); err == nil {
		t.Error("bad keys blob: want error")
	}
	// Wrong buffer size for a tensor.
	bad := make([][]byte, len(dec.TensorData))
	copy(bad, dec.TensorData)
	bad[0] = bad[0][:8]
	if _, err := Reassemble(dec.MetaBlob, dec.KeysBlob, bad); err == nil {
		t.Error("wrong buffer size: want error")
	}
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
	}{
		{Int(-7), KindInt},
		{Float(2.5), KindFloat},
		{String("hi"), KindString},
		{Bool(false), KindBool},
		{Bytes([]byte{9}), KindBytes},
	}
	for _, tc := range cases {
		if tc.v.Kind() != tc.kind {
			t.Errorf("Kind() = %v, want %v", tc.v.Kind(), tc.kind)
		}
	}
	if _, err := Int(1).AsString(); err == nil {
		t.Error("AsString on int: want error")
	}
	if _, err := String("x").AsInt(); err == nil {
		t.Error("AsInt on string: want error")
	}
	if _, err := Bool(true).AsFloat(); err == nil {
		t.Error("AsFloat on bool: want error")
	}
	if _, err := Float(1).AsBool(); err == nil {
		t.Error("AsBool on float: want error")
	}
	if _, err := Int(1).AsBytes(); err == nil {
		t.Error("AsBytes on int: want error")
	}
}

func TestBytesValueIsCopied(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 9
	got, err := v.AsBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("Bytes() did not copy input")
	}
	got[1] = 9
	got2, _ := v.AsBytes()
	if got2[1] != 2 {
		t.Error("AsBytes() did not copy output")
	}
}

func TestMetaBlobRoundTripQuick(t *testing.T) {
	prop := func(iter int64, lr float64, name string, flag bool, blob []byte) bool {
		sd := New()
		sd.SetMeta("iter", Int(iter))
		sd.SetMeta("lr", Float(lr))
		sd.SetMeta("name", String(name))
		sd.SetMeta("flag", Bool(flag))
		sd.SetMeta("blob", Bytes(blob))
		enc, err := encodeMeta(sd.meta)
		if err != nil {
			return false
		}
		dec, err := decodeMeta(enc)
		if err != nil {
			return false
		}
		if len(dec) != 5 {
			return false
		}
		for i := range dec {
			if dec[i].Key != sd.meta[i].Key || !dec[i].Value.Equal(sd.meta[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMetaTrailingGarbage(t *testing.T) {
	enc, err := encodeMeta([]MetaEntry{{Key: "a", Value: Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, 0x00)
	if _, err := decodeMeta(enc); err == nil {
		t.Error("trailing bytes: want error")
	}
}

func TestDecodeTensorKeysErrors(t *testing.T) {
	ts, _ := tensor.New(tensor.Float32, 2, 3)
	enc, err := encodeTensorKeys([]TensorEntry{{Key: "w", Tensor: ts}})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := decodeTensorKeys(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0].Key != "w" || keys[0].DType != tensor.Float32 ||
		len(keys[0].Shape) != 2 || keys[0].Shape[0] != 2 || keys[0].Shape[1] != 3 {
		t.Errorf("decoded key = %+v", keys[0])
	}
	if _, err := decodeTensorKeys(enc[:3]); err == nil {
		t.Error("truncated blob: want error")
	}
	if _, err := decodeTensorKeys([]byte{0x01}); err == nil {
		t.Error("bad magic: want error")
	}
}

// TestKeysBlobTensorBytes: TensorBytes of a dict's KeysBlob is its
// TensorBytes and the sum of TensorSizes, with one allocation however many
// tensors it sums; an empty dict's is zero, and a truncated blob fails.
func TestKeysBlobTensorBytes(t *testing.T) {
	for _, sd := range []*StateDict{sampleDict(t), New()} {
		dec, err := sd.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := TensorSizes(dec.KeysBlob)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, size := range sizes {
			sum += size
		}
		got, err := TensorBytes(dec.KeysBlob)
		if err != nil || got != sd.TensorBytes() || got != sum {
			t.Errorf("TensorBytes = %d, %v; want %d, the dict's and the sum of TensorSizes (%d)", got, err, sd.TensorBytes(), sum)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = TensorBytes(dec.KeysBlob) }); allocs > 1 {
			t.Errorf("TensorBytes over %d tensors allocated %.1f times, want at most 1", len(sizes), allocs)
		}
		for cut := 1; cut < len(dec.KeysBlob); cut++ {
			if _, err := TensorBytes(dec.KeysBlob[:cut]); err == nil {
				t.Errorf("truncation at %d of %d: want an error", cut, len(dec.KeysBlob))
			}
		}
	}
}

func TestEmptyDictRoundTrip(t *testing.T) {
	sd := New()
	dec, err := sd.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := Reassemble(dec.MetaBlob, dec.KeysBlob, dec.TensorData)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Equal(rebuilt) {
		t.Error("empty dict round trip failed")
	}
}
