package rem

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/geom"
)

// REM store persistence: Fig 2 of the paper shows REMs being "stored
// and historical data ... used in case UEs reappear in similar
// locations". Persisting the store lets a UAV land, swap batteries,
// and resume with its maps intact — or hand them to the next aircraft.
//
// Stores are written as a SkyRAN container (see package checkpoint)
// whose single "store" section is the gzip-compressed gob snapshot;
// the container adds magic, versioning and CRC protection so damaged
// files fail loudly. LoadStore still reads the pre-container bare
// gzip+gob layout, so stores saved by earlier builds keep working.

// persistVersion guards against decoding snapshots from incompatible
// builds.
const persistVersion = 1

// containerPayloadVersion is the container-level payload version for
// KindREMStore files (bumped from the implicit 1 of the bare legacy
// layout when the container wrapper was introduced).
const containerPayloadVersion = 2

// storeSection is the container section holding the snapshot bytes.
const storeSection = "store"

// maxMapCells bounds a decoded map's grid at 2²¹ cells, the terrain
// importers' cap, so NX·NY cannot overflow: an overflowed product
// would pass arrays shorter than the grid, and the first lookup would
// index past them.
const maxMapCells = 1 << 21

// mapSnapshot is the serialisable form of a Map.
type mapSnapshot struct {
	OriginX, OriginY float64
	Cell             float64
	NX, NY           int
	Values           []float64
	Sum              []float64
	Count            []int
	Prior            []float64
	HasPrior         bool
	PriorRangeM      float64
	BlendPrior       bool
}

type storeSnapshot struct {
	Version int
	R       float64
	Keys    []geom.Vec2
	Maps    []mapSnapshot
}

func snapshotMap(m *Map) mapSnapshot {
	return mapSnapshot{
		OriginX: m.grid.Origin.X, OriginY: m.grid.Origin.Y,
		Cell: m.grid.Cell, NX: m.grid.NX, NY: m.grid.NY,
		Values: m.grid.Values(), Sum: m.sum, Count: m.count,
		Prior: m.prior, HasPrior: m.hasPrior,
		PriorRangeM: m.PriorRangeM, BlendPrior: m.BlendPrior,
	}
}

func restoreMap(s mapSnapshot) (*Map, error) {
	if !finite(s.OriginX) || !finite(s.OriginY) {
		return nil, fmt.Errorf("rem: snapshot origin (%g, %g) is not finite", s.OriginX, s.OriginY)
	}
	if !finite(s.Cell) || s.Cell <= 0 {
		return nil, fmt.Errorf("rem: snapshot cell size %g is not finite and positive", s.Cell)
	}
	if s.NX <= 0 || s.NY <= 0 || s.NX > maxMapCells/s.NY {
		return nil, fmt.Errorf("rem: snapshot grid %dx%d is empty or exceeds %d cells", s.NX, s.NY, maxMapCells)
	}
	n := s.NX * s.NY
	if len(s.Values) != n || len(s.Sum) != n || len(s.Count) != n {
		return nil, fmt.Errorf("rem: snapshot array lengths do not match %d cells", n)
	}
	if s.HasPrior && len(s.Prior) != n {
		return nil, fmt.Errorf("rem: snapshot prior length %d, want %d", len(s.Prior), n)
	}
	g := geom.NewGrid(geom.V2(s.OriginX, s.OriginY), s.Cell, s.NX, s.NY)
	copy(g.Values(), s.Values)
	m := &Map{
		grid:        g,
		sum:         append([]float64(nil), s.Sum...),
		count:       append([]int(nil), s.Count...),
		hasPrior:    s.HasPrior,
		PriorRangeM: s.PriorRangeM,
		BlendPrior:  s.BlendPrior,
	}
	if s.HasPrior {
		m.prior = append([]float64(nil), s.Prior...)
	}
	return m, nil
}

// snapshotBytes renders the store to the gzip+gob snapshot payload.
func (s *Store) snapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	snap := storeSnapshot{Version: persistVersion, R: s.R}
	s.mu.RLock()
	for _, e := range s.entries {
		snap.Keys = append(snap.Keys, e.pos)
		snap.Maps = append(snap.Maps, snapshotMap(e.m))
	}
	s.mu.RUnlock()
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		zw.Close()
		return nil, fmt.Errorf("rem: encoding store: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("rem: compressing store: %w", err)
	}
	return buf.Bytes(), nil
}

// restoreSnapshotBytes decodes a gzip+gob snapshot payload.
func restoreSnapshotBytes(b []byte) (*Store, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("rem: opening store snapshot: %w", err)
	}
	defer zr.Close()
	var snap storeSnapshot
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		return nil, fmt.Errorf("rem: decoding store: %w", err)
	}
	if snap.Version != persistVersion {
		return nil, fmt.Errorf("rem: snapshot version %d, want %d", snap.Version, persistVersion)
	}
	if len(snap.Keys) != len(snap.Maps) {
		return nil, fmt.Errorf("rem: snapshot has %d keys for %d maps", len(snap.Keys), len(snap.Maps))
	}
	if !finite(snap.R) {
		return nil, fmt.Errorf("rem: snapshot reuse radius %g is not finite", snap.R)
	}
	st := NewStore(snap.R)
	for i, key := range snap.Keys {
		m, err := restoreMap(snap.Maps[i])
		if err != nil {
			return nil, fmt.Errorf("rem: entry %d: %w", i, err)
		}
		st.entries = append(st.entries, storeEntry{pos: key, m: m})
	}
	return st, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Encode renders the store to container bytes — the form embedded in
// simulation checkpoints and written by Save.
func (s *Store) Encode() ([]byte, error) {
	payload, err := s.snapshotBytes()
	if err != nil {
		return nil, err
	}
	c := checkpoint.New(checkpoint.KindREMStore, containerPayloadVersion, 0)
	c.Add(storeSection, payload)
	return c.Encode()
}

// DecodeStore rebuilds a store from container bytes produced by
// Encode (or a legacy bare gzip+gob snapshot).
func DecodeStore(b []byte) (*Store, error) {
	if len(b) >= len(checkpoint.Magic) && bytes.Equal(b[:len(checkpoint.Magic)], checkpoint.Magic[:]) {
		c, err := checkpoint.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("rem: %w", err)
		}
		if c.Kind != checkpoint.KindREMStore {
			return nil, fmt.Errorf("%w: %q, want %q", checkpoint.ErrKind, c.Kind, checkpoint.KindREMStore)
		}
		payload, ok := c.Section(storeSection)
		if !ok {
			return nil, fmt.Errorf("rem: container has no %q section", storeSection)
		}
		return restoreSnapshotBytes(payload)
	}
	// Legacy pre-container layout: bare gzip+gob.
	return restoreSnapshotBytes(b)
}

// Save writes the store (reuse radius, keys and full map contents) to
// w as a CRC-protected container.
func (s *Store) Save(w io.Writer) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// LoadStore reads a store previously written with Save, accepting both
// the container format and the legacy bare gzip+gob layout.
func LoadStore(r io.Reader) (*Store, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rem: reading store snapshot: %w", err)
	}
	return DecodeStore(b)
}
