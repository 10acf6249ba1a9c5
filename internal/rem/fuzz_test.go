package rem

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// legacySnapshot renders s in the pre-container bare gzip+gob layout,
// which DecodeStore still accepts.
func legacySnapshot(t testing.TB, s storeSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(s); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// unindexableSnapshots are legacy snapshots whose grids no lookup can
// index: NX·NY overflows to 0, so empty arrays pass the length check
// and the first Value indexes past them; and a NaN cell size, which
// bins no measurement.
func unindexableSnapshots() []storeSnapshot {
	key := []geom.Vec2{{X: 1, Y: 1}}
	return []storeSnapshot{
		{Version: persistVersion, R: 10, Keys: key,
			Maps: []mapSnapshot{{NX: 1 << 62, NY: 4, Cell: 1}}},
		{Version: persistVersion, R: 10, Keys: key,
			Maps: []mapSnapshot{{NX: 2, NY: 2, Cell: math.NaN(),
				Values: make([]float64, 4), Sum: make([]float64, 4), Count: make([]int, 4)}}},
	}
}

func TestDecodeStoreRefusesUnindexableGrids(t *testing.T) {
	for i, snap := range unindexableSnapshots() {
		if _, err := DecodeStore(legacySnapshot(t, snap)); err == nil || !strings.Contains(err.Error(), "entry 0") {
			t.Errorf("snapshot %d: err = %v, want a refusal naming entry 0", i, err)
		}
	}
	inf := storeSnapshot{Version: persistVersion, R: math.Inf(1)}
	if _, err := DecodeStore(legacySnapshot(t, inf)); err == nil || !strings.Contains(err.Error(), "radius") {
		t.Errorf("infinite reuse radius: err = %v, want a refusal naming the radius", err)
	}
}

// FuzzDecodeStore drives the REM store decoder, which every resumed
// SkyRAN checkpoint reaches, with arbitrary bytes on both the container
// and the legacy bare gzip+gob path. It must never panic; a store it
// accepts re-encodes to bytes that decode to the same encoding, and
// each of its maps answers Value at its corners.
func FuzzDecodeStore(f *testing.F) {
	s := NewStore(10)
	m := New(area100(), 10)
	m.AddMeasurement(geom.V2(15, 15), 4)
	m.FillFrom(func(geom.Vec2) float64 { return -3 })
	s.Put(geom.V2(15, 15), m)
	enc, err := s.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	legacy, err := s.snapshotBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	for _, snap := range unindexableSnapshots() {
		f.Add(legacySnapshot(f, snap))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStore(data)
		if err != nil {
			return
		}
		b1, err := st.Encode()
		if err != nil {
			t.Fatalf("decoded store does not re-encode: %v", err)
		}
		st2, err := DecodeStore(b1)
		if err != nil {
			t.Fatalf("re-encoded store does not decode: %v", err)
		}
		b2, err := st2.Encode()
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("round trip changed the encoding (err %v)", err)
		}
		for _, e := range st.entries {
			b := e.m.Bounds()
			for _, p := range []geom.Vec2{{X: b.MinX, Y: b.MinY}, {X: b.MaxX, Y: b.MinY}, {X: b.MinX, Y: b.MaxY}, {X: b.MaxX, Y: b.MaxY}} {
				e.m.Value(p)
			}
		}
	})
}
