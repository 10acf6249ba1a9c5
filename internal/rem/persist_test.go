package rem

import (
	"bytes"
	"compress/gzip"
	"errors"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/geom"
)

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore(10)
	m1 := New(area100(), 2)
	m1.AddMeasurement(geom.V2(10, 10), 7)
	m1.AddMeasurement(geom.V2(10, 10), 9)
	m1.FillFrom(func(geom.Vec2) float64 { return -3 })
	m1.BlendPrior = true
	m1.PriorRangeM = 42
	s.Put(geom.V2(10, 10), m1)

	m2 := New(area100(), 2)
	m2.AddMeasurement(geom.V2(80, 80), -1)
	s.Put(geom.V2(80, 80), m2)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.R != 10 || got.Len() != 2 {
		t.Fatalf("store header: R=%v len=%d", got.R, got.Len())
	}
	r1 := got.Lookup(geom.V2(10, 10))
	if r1 == nil {
		t.Fatal("entry 1 missing")
	}
	if v := r1.Value(geom.V2(10, 10)); v != 8 { // mean of 7 and 9
		t.Errorf("measured value = %v, want 8", v)
	}
	if !r1.BlendPrior || r1.PriorRangeM != 42 {
		t.Error("prior settings lost")
	}
	// Measurement accumulation continues correctly after reload.
	r1.AddMeasurement(geom.V2(10, 10), 14)
	if v := r1.Value(geom.V2(10, 10)); v != 10 { // mean of 7, 9, 14
		t.Errorf("post-reload mean = %v, want 10", v)
	}
	// Prior survives: far cells track the model after Interpolate.
	if err := r1.Interpolate(); err != nil {
		t.Fatal(err)
	}
	if v := r1.Value(geom.V2(95, 95)); v > 0 {
		t.Errorf("far cell %v should lean to the -3 prior", v)
	}
}

func TestLoadStoreRejectsGarbage(t *testing.T) {
	if _, err := LoadStore(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("non-gzip input should fail")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("gzip but not gob")) //nolint:errcheck
	zw.Close()
	if _, err := LoadStore(&buf); err == nil {
		t.Error("non-gob payload should fail")
	}
}

func TestLoadStoreRejectsBadVersionAndShape(t *testing.T) {
	encode := func(s storeSnapshot) *bytes.Reader { return bytes.NewReader(legacySnapshot(t, s)) }
	if _, err := LoadStore(encode(storeSnapshot{Version: 99})); err == nil {
		t.Error("future version should fail")
	}
	if _, err := LoadStore(encode(storeSnapshot{
		Version: persistVersion,
		Keys:    []geom.Vec2{{X: 1, Y: 1}},
	})); err == nil {
		t.Error("key/map count mismatch should fail")
	}
	if _, err := LoadStore(encode(storeSnapshot{
		Version: persistVersion,
		Keys:    []geom.Vec2{{X: 1, Y: 1}},
		Maps:    []mapSnapshot{{NX: 4, NY: 4, Cell: 1, Values: []float64{1}}},
	})); err == nil {
		t.Error("mismatched array lengths should fail")
	}
}

func TestSaveWritesContainerFormat(t *testing.T) {
	s := NewStore(10)
	m := New(area100(), 2)
	m.AddMeasurement(geom.V2(5, 5), 3)
	s.Put(geom.V2(5, 5), m)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, checkpoint.Magic[:]) {
		t.Fatalf("Save output does not start with container magic: % x", b[:8])
	}
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatalf("Save output is not a valid container: %v", err)
	}
	if c.Kind != checkpoint.KindREMStore || c.Version != containerPayloadVersion {
		t.Fatalf("container header: kind=%q version=%d", c.Kind, c.Version)
	}
}

func TestLoadStoreLegacyFallback(t *testing.T) {
	// A store saved by a pre-container build: bare gzip-compressed gob.
	s := NewStore(7)
	m := New(area100(), 2)
	m.AddMeasurement(geom.V2(20, 20), 4)
	m.AddMeasurement(geom.V2(20, 20), 6)
	s.Put(geom.V2(20, 20), m)
	legacy, err := s.snapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy layout rejected: %v", err)
	}
	if got.R != 7 || got.Len() != 1 {
		t.Fatalf("legacy store: R=%v len=%d", got.R, got.Len())
	}
	if v := got.Lookup(geom.V2(20, 20)).Value(geom.V2(20, 20)); v != 5 {
		t.Errorf("legacy value = %v, want 5", v)
	}
}

func TestLoadStoreDetectsCorruption(t *testing.T) {
	s := NewStore(10)
	m := New(area100(), 2)
	m.AddMeasurement(geom.V2(5, 5), 3)
	s.Put(geom.V2(5, 5), m)
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: must fail loudly as corruption, not decode
	// garbage or fall back to the legacy path.
	mut := append([]byte(nil), b...)
	mut[len(mut)/2] ^= 0x10
	if _, err := LoadStore(bytes.NewReader(mut)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupt container: got %v, want ErrCorrupt", err)
	}
	// A container of the wrong kind is a distinct failure.
	wrong := checkpoint.New(checkpoint.KindCheckpoint, 1, 0)
	wrong.Add("store", nil)
	wb, _ := wrong.Encode()
	if _, err := DecodeStore(wb); !errors.Is(err, checkpoint.ErrKind) {
		t.Fatalf("wrong kind: got %v, want ErrKind", err)
	}
}

func TestEncodeDecodeStoreRoundTrip(t *testing.T) {
	s := NewStore(12)
	for i := 0; i < 3; i++ {
		m := New(area100(), 4)
		m.AddMeasurement(geom.V2(float64(10+i*30), 50), float64(i))
		s.Put(geom.V2(float64(10+i*30), 50), m)
	}
	b1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStore(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Encode is deterministic: the checkpoint layer depends on restored
	// stores re-encoding to identical bytes.
	if !bytes.Equal(b1, b2) {
		t.Fatal("Encode of a restored store differs from the original")
	}
}

func TestSaveEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore(5).Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil || got.Len() != 0 || got.R != 5 {
		t.Errorf("empty store roundtrip: %v len=%d", err, got.Len())
	}
}
