package scenario

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/rem"
	"repro/internal/sim"
)

// Scenario checkpointing: at epoch boundaries the full simulation
// state — world, controller, scenario RNG cursor, and the completed
// epoch reports — is written as a checkpoint container. A resumed run
// rebuilds the world from the embedded spec, restores the state, and
// continues; its final Result is byte-identical to an uninterrupted
// run of the same spec, at any worker count, because all randomness is
// captured as (seed, draws) counters and re-derived lazily.

// checkpointPayloadVersion is the payload version written into
// KindCheckpoint containers; bump on any section layout change. Version
// 3 writes one "world" section, a sim.State, for a single UAV and a
// fleet alike. Version 2 wrote the same section with an RRC state in
// every eNodeB context; gob skips that field, so both decode alike, and
// a build that reads only up to version 2 refuses version 3 instead of
// reading every context as idle. Version 1 wrote a single UAV's "world"
// in the old one-cell layout and a fleet's "multiworld";
// checkpointFile.worldState still reads both. Files written while the
// eNodeB had a proportional-fair scheduler (versions 1 to 3) carry its
// rate in each eNodeB context; gob skips that field, and an older build
// reads a newer file's missing rate as 0, which its round-robin never
// reads, so dropping the field kept version 3.
const checkpointPayloadVersion = 3

// Section names inside a KindCheckpoint container.
const (
	sectionSpec       = "spec"
	sectionProgress   = "progress"
	sectionWorld      = "world"
	sectionController = "controller"
	sectionReports    = "reports"
	// sectionMultiWorldV1 is a version-1 fleet's world section.
	sectionMultiWorldV1 = "multiworld"
)

// Fingerprint derives the scenario fingerprint: FNV-64a over the
// canonical (normalized, JSON-encoded) spec. Checkpoint headers carry
// it so a snapshot cannot be restored into a different scenario.
func Fingerprint(spec Spec) (uint64, error) {
	if err := spec.Normalize(); err != nil {
		return 0, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return 0, fmt.Errorf("scenario: fingerprinting spec: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// progressState is the "progress" section: where to resume and the
// scenario RNG cursor (UE placement + relocation draws).
type progressState struct {
	NextEpoch int
	RNG       detrand.State
}

// controllerState is the "controller" section: which controller kind
// the snapshot belongs to and its state (at most one branch set).
type controllerState struct {
	Kind     string
	SkyRAN   *core.SkyRANState
	Baseline *core.BaselineState
}

// resultState is the "reports" section: the Result header plus every
// completed epoch report, so a resumed run's output includes the
// epochs that ran before the checkpoint.
type resultState struct {
	Terrain        TerrainInfo
	Controller     string
	ActiveSessions int
	Epochs         []EpochReport
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// snapshotController captures the controller state for the spec's
// controller kind.
func snapshotController(spec Spec, ctrl core.Controller) (controllerState, error) {
	cs := controllerState{Kind: spec.Controller}
	switch c := ctrl.(type) {
	case *core.SkyRAN:
		st, err := c.Snapshot()
		if err != nil {
			return cs, err
		}
		cs.SkyRAN = &st
	case *core.Centroid:
		st := c.Snapshot()
		cs.Baseline = &st
	case *core.Random:
		st := c.Snapshot()
		cs.Baseline = &st
	}
	// Uniform and Oracle carry no cross-epoch state.
	return cs, nil
}

// restoreController reinstates a controller snapshot.
func restoreController(ctrl core.Controller, cs controllerState) error {
	switch c := ctrl.(type) {
	case *core.SkyRAN:
		if cs.SkyRAN == nil {
			return fmt.Errorf("scenario: checkpoint has no SkyRAN controller state")
		}
		return c.Restore(*cs.SkyRAN)
	case *core.Centroid:
		if cs.Baseline == nil {
			return fmt.Errorf("scenario: checkpoint has no baseline controller state")
		}
		return c.Restore(*cs.Baseline)
	case *core.Random:
		if cs.Baseline == nil {
			return fmt.Errorf("scenario: checkpoint has no baseline controller state")
		}
		return c.Restore(*cs.Baseline)
	}
	return nil
}

// writeCheckpoint commits a checkpoint capturing the run after
// nextEpoch completed epochs, then applies the retention policy.
func writeCheckpoint(env *runEnv, nextEpoch int, cp *CheckpointConfig, onCheckpoint func(CheckpointEvent)) error {
	started := time.Now()
	fp, err := Fingerprint(env.spec)
	if err != nil {
		return err
	}
	specJSON, err := json.Marshal(env.spec)
	if err != nil {
		return fmt.Errorf("scenario: encoding spec: %w", err)
	}
	progress, err := gobBytes(progressState{NextEpoch: nextEpoch, RNG: env.rng.State()})
	if err != nil {
		return fmt.Errorf("scenario: encoding progress: %w", err)
	}
	world, err := gobBytes(env.world().Snapshot())
	if err != nil {
		return fmt.Errorf("scenario: encoding world: %w", err)
	}
	cs, err := snapshotController(env.spec, env.ctrl)
	if err != nil {
		return fmt.Errorf("scenario: controller snapshot: %w", err)
	}
	ctrlBytes, err := gobBytes(cs)
	if err != nil {
		return fmt.Errorf("scenario: encoding controller: %w", err)
	}
	reports, err := gobBytes(resultState{
		Terrain:        env.res.Terrain,
		Controller:     env.res.Controller,
		ActiveSessions: env.res.ActiveSessions,
		Epochs:         env.res.Epochs,
	})
	if err != nil {
		return fmt.Errorf("scenario: encoding reports: %w", err)
	}

	c := checkpoint.New(checkpoint.KindCheckpoint, checkpointPayloadVersion, fp)
	c.Add(sectionSpec, specJSON)
	c.Add(sectionProgress, progress)
	c.Add(sectionWorld, world)
	c.Add(sectionController, ctrlBytes)
	c.Add(sectionReports, reports)

	if err := os.MkdirAll(cp.Dir, 0o755); err != nil {
		return fmt.Errorf("scenario: checkpoint dir: %w", err)
	}
	path := filepath.Join(cp.Dir, checkpoint.EpochFileName(nextEpoch))
	n, err := checkpoint.WriteFileAtomic(path, c)
	if err != nil {
		return err
	}
	if err := checkpoint.Prune(cp.Dir, cp.Retain); err != nil {
		return fmt.Errorf("scenario: pruning checkpoints: %w", err)
	}
	if onCheckpoint != nil {
		onCheckpoint(CheckpointEvent{
			Path: path, Epoch: nextEpoch, Bytes: n,
			Seconds: time.Since(started).Seconds(),
		})
	}
	return nil
}

// CheckpointMeta summarizes a verified checkpoint file.
type CheckpointMeta struct {
	Path        string
	Bytes       int64
	Fingerprint uint64
	Spec        Spec
	// NextEpoch is the epoch the run resumes at (== completed epochs).
	NextEpoch int
}

// checkpointFile is a checkpoint that passed readCheckpoint's checks.
type checkpointFile struct {
	c        *checkpoint.Container
	meta     CheckpointMeta
	progress progressState
}

// readCheckpoint reads a checkpoint file and makes every check that
// needs no world: the container's CRCs and kind, a payload version this
// build reads, the embedded spec, the header fingerprint against that
// spec, and the progress section. InspectCheckpoint and Resume share
// it, so a file that inspects clean passes every header and spec check
// Resume makes.
func readCheckpoint(path string) (*checkpointFile, error) {
	c, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if c.Kind != checkpoint.KindCheckpoint {
		return nil, fmt.Errorf("%w: %q, want %q", checkpoint.ErrKind, c.Kind, checkpoint.KindCheckpoint)
	}
	if c.Version < 1 || c.Version > checkpointPayloadVersion {
		return nil, fmt.Errorf("%w: checkpoint payload version %d, support 1 to %d",
			checkpoint.ErrVersion, c.Version, checkpointPayloadVersion)
	}
	f := &checkpointFile{c: c, meta: CheckpointMeta{Path: path, Fingerprint: c.Fingerprint}}
	specJSON, ok := c.Section(sectionSpec)
	if !ok {
		return nil, fmt.Errorf("scenario: checkpoint has no %q section", sectionSpec)
	}
	if err := json.Unmarshal(specJSON, &f.meta.Spec); err != nil {
		return nil, fmt.Errorf("scenario: decoding checkpoint spec: %w", err)
	}
	if err := f.meta.Spec.Normalize(); err != nil {
		return nil, fmt.Errorf("scenario: checkpoint spec: %w", err)
	}
	fp, err := Fingerprint(f.meta.Spec)
	if err != nil {
		return nil, err
	}
	if fp != c.Fingerprint {
		return nil, fmt.Errorf("%w: header %016x, embedded spec %016x", checkpoint.ErrFingerprint, c.Fingerprint, fp)
	}
	if err := f.decode(sectionProgress, &f.progress); err != nil {
		return nil, err
	}
	f.meta.NextEpoch = f.progress.NextEpoch
	return f, nil
}

// decode gob-decodes the named section into v.
func (f *checkpointFile) decode(name string, v any) error {
	b, ok := f.c.Section(name)
	if !ok {
		return fmt.Errorf("scenario: checkpoint has no %q section", name)
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("scenario: decoding checkpoint %s: %w", name, err)
	}
	return nil
}

// worldState decodes the world section into the state env restores.
// Payload version 1 is read here and nowhere else: a fleet's
// "multiworld" section decodes into sim.State as it is, while a single
// UAV's "world" section carried its one cell as a bare ENB field and
// none of the fields a one-cell world never changes. Those — the
// placement stream, the cell position, the serving map and the
// handover engine — come from the freshly built world's own snapshot.
func (f *checkpointFile) worldState(env *runEnv) (sim.State, error) {
	var st sim.State
	switch {
	case f.c.Version >= 2:
		return st, f.decode(sectionWorld, &st)
	case env.w == nil:
		return st, f.decode(sectionMultiWorldV1, &st)
	}
	var legacy struct{ ENB enb.State }
	if err := f.decode(sectionWorld, &st); err != nil {
		return st, err
	}
	if err := f.decode(sectionWorld, &legacy); err != nil {
		return st, err
	}
	fresh := env.w.Snapshot()
	st.PlaceRNG, st.CellPos, st.Serving, st.Handover = fresh.PlaceRNG, fresh.CellPos, fresh.Serving, fresh.Handover
	st.Cells = []enb.State{legacy.ENB}
	return st, nil
}

// InspectCheckpoint reads, verifies and summarizes a checkpoint file,
// without building or restoring anything.
func InspectCheckpoint(path string) (CheckpointMeta, error) {
	f, err := readCheckpoint(path)
	if err != nil {
		return CheckpointMeta{Path: path}, err
	}
	if st, err := os.Stat(path); err == nil {
		f.meta.Bytes = st.Size()
	}
	return f.meta, nil
}

// Resume restores a checkpoint and runs the remaining epochs. When
// expect is non-nil the checkpoint must belong to that scenario
// (fingerprint match) — the error wraps checkpoint.ErrFingerprint
// otherwise, distinct from the CRC errors a damaged file produces. The
// returned Result includes the pre-checkpoint epochs and is
// byte-identical to an uninterrupted run of the same spec.
func Resume(ctx context.Context, path string, expect *Spec, opts Options) (*Result, *rem.Store, error) {
	if opts.RecordTrace != "" {
		return nil, nil, fmt.Errorf("scenario: trace capture cannot be combined with resume")
	}
	f, err := readCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	if expect != nil {
		want, err := Fingerprint(*expect)
		if err != nil {
			return nil, nil, err
		}
		if want != f.c.Fingerprint {
			return nil, nil, fmt.Errorf("%w: checkpoint is for a different scenario (checkpoint %016x, expected %016x)",
				checkpoint.ErrFingerprint, f.c.Fingerprint, want)
		}
	}
	var cs controllerState
	if err := f.decode(sectionController, &cs); err != nil {
		return nil, nil, err
	}
	var reports resultState
	if err := f.decode(sectionReports, &reports); err != nil {
		return nil, nil, err
	}

	env, err := build(f.meta.Spec, opts)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.worldState(env)
	if err != nil {
		return nil, nil, err
	}
	if err := setupTracing(env, opts); err != nil {
		return nil, nil, err
	}
	if err := env.rng.Restore(f.progress.RNG); err != nil {
		return nil, nil, fmt.Errorf("scenario: restoring scenario RNG: %w", err)
	}
	if err := env.world().Restore(st); err != nil {
		return nil, nil, err
	}
	if err := restoreController(env.ctrl, cs); err != nil {
		return nil, nil, err
	}
	env.res.Terrain = reports.Terrain
	env.res.Controller = reports.Controller
	env.res.ActiveSessions = reports.ActiveSessions
	env.res.Epochs = reports.Epochs

	if opts.OnStart != nil {
		opts.OnStart(env.res)
	}
	return runFrom(ctx, env, f.progress.NextEpoch, opts)
}
