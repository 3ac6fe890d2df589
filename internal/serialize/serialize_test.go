package serialize

import (
	"testing"

	"eccheck/internal/statedict"
	"eccheck/internal/tensor"
)

func sampleDict(t *testing.T) *statedict.StateDict {
	t.Helper()
	sd := statedict.New()
	sd.SetMeta("iteration", statedict.Int(99))
	sd.SetMeta("ckpt_version", statedict.String("3"))
	for i, shape := range [][]int{{64, 64}, {64}, {8, 8, 4}} {
		ts, err := tensor.New(tensor.Float32, shape...)
		if err != nil {
			t.Fatal(err)
		}
		ts.FillPattern(uint64(100 + i))
		key := []string{"w", "b", "opt"}[i]
		if err := sd.SetTensor(key, ts); err != nil {
			t.Fatal(err)
		}
	}
	return sd
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	sd := sampleDict(t)
	stream, err := Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Equal(got) {
		t.Error("round trip produced different dict")
	}
}

func TestUnmarshalDoesNotAliasStream(t *testing.T) {
	sd := sampleDict(t)
	stream, err := Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stream {
		stream[i] = 0xFF
	}
	if !sd.Equal(got) {
		t.Error("unmarshaled dict aliases the input stream")
	}
}

func TestMarshalCopiesTensorData(t *testing.T) {
	sd := sampleDict(t)
	stream, err := Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) < sd.TensorBytes() {
		t.Errorf("stream %dB smaller than tensor payload %dB", len(stream), sd.TensorBytes())
	}
	overhead := len(stream) - sd.TensorBytes()
	if overhead <= 0 {
		t.Errorf("overhead = %d, want > 0 (framing + small components)", overhead)
	}
	if overhead > 4096 {
		t.Errorf("overhead = %d, implausibly large for a small dict", overhead)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	sd := sampleDict(t)
	stream, err := Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil stream: want error")
	}
	if _, err := Unmarshal(stream[:3]); err == nil {
		t.Error("too short: want error")
	}
	bad := append([]byte(nil), stream...)
	bad[0] ^= 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic: want error")
	}
	badVer := append([]byte(nil), stream...)
	badVer[4] = 99
	if _, err := Unmarshal(badVer); err == nil {
		t.Error("bad version: want error")
	}
	if _, err := Unmarshal(stream[:len(stream)-5]); err == nil {
		t.Error("truncated payload: want error")
	}
	if _, err := Unmarshal(append(append([]byte(nil), stream...), 0x00)); err == nil {
		t.Error("trailing bytes: want error")
	}
	if _, err := Unmarshal(hostileCount()); err == nil {
		t.Error("tensor count 2^40 in a 13-byte stream: want error")
	}
}

func TestEmptyDictRoundTrip(t *testing.T) {
	sd := statedict.New()
	stream, err := Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Equal(got) {
		t.Error("empty dict round trip failed")
	}
}

func BenchmarkMarshal64MB(b *testing.B) {
	if testing.Short() {
		b.Skip("full-size 64 MB marshal; run without -short")
	}
	sd := statedict.New()
	ts, err := tensor.New(tensor.Float32, 4096, 4096) // 64 MB
	if err != nil {
		b.Fatal(err)
	}
	if err := sd.SetTensor("w", ts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ts.NumBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(sd); err != nil {
			b.Fatal(err)
		}
	}
}
