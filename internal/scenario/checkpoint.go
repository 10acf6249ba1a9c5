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
// KindCheckpoint containers; bump on any section layout change.
const checkpointPayloadVersion = 1

// Section names inside a KindCheckpoint container. Single-UAV runs
// write "world"; multi-cell runs (Spec.Cells >= 2) write "multiworld"
// instead. Sections are keyed, so old checkpoints — which never carry
// "multiworld" and whose specs never set cells — decode unchanged and
// the payload version stays 1.
const (
	sectionSpec       = "spec"
	sectionProgress   = "progress"
	sectionWorld      = "world"
	sectionMultiWorld = "multiworld"
	sectionController = "controller"
	sectionReports    = "reports"
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

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
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
	worldSection := sectionWorld
	var world []byte
	if env.w == nil {
		worldSection = sectionMultiWorld
		world, err = gobBytes(env.m.Snapshot())
	} else {
		world, err = gobBytes(env.w.Snapshot())
	}
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
	c.Add(worldSection, world)
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

// InspectCheckpoint reads, CRC-verifies and summarizes a checkpoint
// file, without building or restoring anything.
func InspectCheckpoint(path string) (CheckpointMeta, error) {
	meta := CheckpointMeta{Path: path}
	c, err := checkpoint.ReadFile(path)
	if err != nil {
		return meta, err
	}
	if st, err := os.Stat(path); err == nil {
		meta.Bytes = st.Size()
	}
	if c.Kind != checkpoint.KindCheckpoint {
		return meta, fmt.Errorf("%w: %q, want %q", checkpoint.ErrKind, c.Kind, checkpoint.KindCheckpoint)
	}
	meta.Fingerprint = c.Fingerprint
	specJSON, ok := c.Section(sectionSpec)
	if !ok {
		return meta, fmt.Errorf("scenario: checkpoint has no %q section", sectionSpec)
	}
	if err := json.Unmarshal(specJSON, &meta.Spec); err != nil {
		return meta, fmt.Errorf("scenario: decoding checkpoint spec: %w", err)
	}
	var progress progressState
	prog, ok := c.Section(sectionProgress)
	if !ok {
		return meta, fmt.Errorf("scenario: checkpoint has no %q section", sectionProgress)
	}
	if err := gobDecode(prog, &progress); err != nil {
		return meta, fmt.Errorf("scenario: decoding checkpoint progress: %w", err)
	}
	meta.NextEpoch = progress.NextEpoch
	return meta, nil
}

// Resume restores a checkpoint and runs the remaining epochs. When
// expect is non-nil the checkpoint must belong to that scenario
// (fingerprint match) — the error wraps checkpoint.ErrFingerprint
// otherwise, distinct from the CRC errors a damaged file produces. The
// returned Result includes the pre-checkpoint epochs and is
// byte-identical to an uninterrupted run of the same spec.
func Resume(ctx context.Context, path string, expect *Spec, opts Options) (*Result, *rem.Store, error) {
	c, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if c.Kind != checkpoint.KindCheckpoint {
		return nil, nil, fmt.Errorf("%w: %q, want %q", checkpoint.ErrKind, c.Kind, checkpoint.KindCheckpoint)
	}
	if c.Version != checkpointPayloadVersion {
		return nil, nil, fmt.Errorf("%w: checkpoint payload version %d, support %d",
			checkpoint.ErrVersion, c.Version, checkpointPayloadVersion)
	}

	section := func(name string) ([]byte, error) {
		b, ok := c.Section(name)
		if !ok {
			return nil, fmt.Errorf("scenario: checkpoint has no %q section", name)
		}
		return b, nil
	}

	specJSON, err := section(sectionSpec)
	if err != nil {
		return nil, nil, err
	}
	var spec Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, nil, fmt.Errorf("scenario: decoding checkpoint spec: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return nil, nil, fmt.Errorf("scenario: checkpoint spec: %w", err)
	}
	fp, err := Fingerprint(spec)
	if err != nil {
		return nil, nil, err
	}
	if fp != c.Fingerprint {
		return nil, nil, fmt.Errorf("%w: header %016x, embedded spec %016x",
			checkpoint.ErrFingerprint, c.Fingerprint, fp)
	}
	if expect != nil {
		want, err := Fingerprint(*expect)
		if err != nil {
			return nil, nil, err
		}
		if want != c.Fingerprint {
			return nil, nil, fmt.Errorf("%w: checkpoint is for a different scenario (checkpoint %016x, expected %016x)",
				checkpoint.ErrFingerprint, c.Fingerprint, want)
		}
	}

	var progress progressState
	if b, err := section(sectionProgress); err != nil {
		return nil, nil, err
	} else if err := gobDecode(b, &progress); err != nil {
		return nil, nil, fmt.Errorf("scenario: decoding checkpoint progress: %w", err)
	}
	var worldState sim.WorldState
	var multiState sim.MultiState
	if spec.Cells >= 2 {
		if b, err := section(sectionMultiWorld); err != nil {
			return nil, nil, err
		} else if err := gobDecode(b, &multiState); err != nil {
			return nil, nil, fmt.Errorf("scenario: decoding checkpoint fleet: %w", err)
		}
	} else if b, err := section(sectionWorld); err != nil {
		return nil, nil, err
	} else if err := gobDecode(b, &worldState); err != nil {
		return nil, nil, fmt.Errorf("scenario: decoding checkpoint world: %w", err)
	}
	var cs controllerState
	if b, err := section(sectionController); err != nil {
		return nil, nil, err
	} else if err := gobDecode(b, &cs); err != nil {
		return nil, nil, fmt.Errorf("scenario: decoding checkpoint controller: %w", err)
	}
	var reports resultState
	if b, err := section(sectionReports); err != nil {
		return nil, nil, err
	} else if err := gobDecode(b, &reports); err != nil {
		return nil, nil, fmt.Errorf("scenario: decoding checkpoint reports: %w", err)
	}

	env, err := build(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.RecordTrace != "" {
		return nil, nil, fmt.Errorf("scenario: trace capture cannot be combined with resume")
	}
	if err := setupTracing(env, opts); err != nil {
		return nil, nil, err
	}
	if err := env.rng.Restore(progress.RNG); err != nil {
		return nil, nil, fmt.Errorf("scenario: restoring scenario RNG: %w", err)
	}
	if env.w == nil {
		if err := env.m.Restore(multiState); err != nil {
			return nil, nil, err
		}
	} else {
		if err := env.w.Restore(worldState); err != nil {
			return nil, nil, err
		}
		if err := restoreController(env.ctrl, cs); err != nil {
			return nil, nil, err
		}
	}
	env.res.Terrain = reports.Terrain
	env.res.Controller = reports.Controller
	env.res.ActiveSessions = reports.ActiveSessions
	env.res.Epochs = reports.Epochs

	if opts.OnStart != nil {
		opts.OnStart(env.res)
	}
	return runFrom(ctx, env, progress.NextEpoch, opts)
}
