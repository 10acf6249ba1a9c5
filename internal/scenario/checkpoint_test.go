package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/rem"
	"repro/internal/traffic"
)

func ckptSpec(ctrl string) Spec {
	return Spec{
		Terrain: "FLAT", UEs: 3, Controller: ctrl,
		BudgetM: 200, Epochs: 4, Seed: 7, ServeS: 1,
		Traffic: &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 3e6},
	}
}

func encodeStore(t *testing.T, s *rem.Store) []byte {
	t.Helper()
	if s == nil {
		return nil
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatalf("encoding store: %v", err)
	}
	return b
}

// TestResumeByteIdentical is the checkpoint correctness contract: a
// run interrupted after epoch N and resumed in a "new process" (fresh
// world, fresh controller, everything re-derived from the checkpoint
// file) produces byte-identical output to the uninterrupted run — for
// the full SkyRAN controller (REM store, trackers, histories, serving
// backlog) and for the RNG-bearing random baseline.
func TestResumeByteIdentical(t *testing.T) {
	for _, ctrl := range []string{"skyran", "random"} {
		t.Run(ctrl, func(t *testing.T) {
			spec := ckptSpec(ctrl)
			ref, refStore, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			refJSON, err := MarshalResult(ref)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: checkpoint every epoch, cancel after 2.
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var events []CheckpointEvent
			_, _, err = Run(ctx, spec, Options{
				Checkpoint: &CheckpointConfig{Dir: dir},
				OnEpoch: func(rep EpochReport) {
					if rep.Epoch == 2 {
						cancel()
					}
				},
				OnCheckpoint: func(ev CheckpointEvent) { events = append(events, ev) },
			})
			if err == nil {
				t.Fatal("cancelled run reported no error")
			}
			if len(events) < 2 {
				t.Fatalf("expected ≥2 checkpoint events, got %d", len(events))
			}
			ckpt := filepath.Join(dir, checkpoint.EpochFileName(2))
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("checkpoint missing: %v", err)
			}

			meta, err := InspectCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("InspectCheckpoint: %v", err)
			}
			if meta.NextEpoch != 2 || meta.Spec.Controller != ctrl {
				t.Fatalf("meta: %+v", meta)
			}

			got, gotStore, err := Resume(context.Background(), ckpt, &spec, Options{})
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			gotJSON, err := MarshalResult(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refJSON, gotJSON) {
				t.Fatalf("resumed result differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", refJSON, gotJSON)
			}
			if !bytes.Equal(encodeStore(t, refStore), encodeStore(t, gotStore)) {
				t.Fatal("resumed REM store differs from uninterrupted run")
			}
		})
	}
}

// TestResumeFromFinalCheckpoint resumes a checkpoint taken after the
// last epoch: no epochs remain, and the stored reports alone must
// reproduce the full result.
func TestResumeFromFinalCheckpoint(t *testing.T) {
	spec := ckptSpec("random")
	dir := t.TempDir()
	ref, _, err := Run(context.Background(), spec, Options{
		Checkpoint: &CheckpointConfig{Dir: dir, EveryEpochs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	files, err := checkpoint.ListDir(dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("ListDir: %v, %v", files, err)
	}
	got, _, err := Resume(context.Background(), files[len(files)-1], nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := MarshalResult(ref)
	gotJSON, _ := MarshalResult(got)
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("resume from final checkpoint differs")
	}
}

// TestCheckpointRetention keeps only the newest Retain files.
func TestCheckpointRetention(t *testing.T) {
	spec := ckptSpec("random")
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), spec, Options{
		Checkpoint: &CheckpointConfig{Dir: dir, Retain: 2},
	}); err != nil {
		t.Fatal(err)
	}
	files, err := checkpoint.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || filepath.Base(files[1]) != checkpoint.EpochFileName(4) {
		t.Fatalf("retention kept %v", files)
	}
}

// TestResumeWrongScenarioRejected: restoring into a different scenario
// fails with the fingerprint error, not a CRC error.
func TestResumeWrongScenarioRejected(t *testing.T) {
	spec := ckptSpec("random")
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), spec, Options{
		Checkpoint: &CheckpointConfig{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, checkpoint.EpochFileName(2))
	other := spec
	other.Seed = 8
	_, _, err := Resume(context.Background(), ckpt, &other, Options{})
	if !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("wrong scenario: got %v, want ErrFingerprint", err)
	}
	if errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatal("fingerprint mismatch misreported as corruption")
	}
}

// TestResumeCorruptRejected: a bit-flipped checkpoint fails with the
// CRC error, distinct from the fingerprint error.
func TestResumeCorruptRejected(t *testing.T) {
	spec := ckptSpec("random")
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), spec, Options{
		Checkpoint: &CheckpointConfig{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, checkpoint.EpochFileName(2))
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(ckpt, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Resume(context.Background(), ckpt, &spec, Options{})
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: got %v, want ErrCorrupt", err)
	}
	if _, err := InspectCheckpoint(ckpt); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("InspectCheckpoint on corrupt file: got %v, want ErrCorrupt", err)
	}
}

// TestCheckpointedRunOutputUnchanged: enabling checkpointing must not
// perturb the Result in any way.
func TestCheckpointedRunOutputUnchanged(t *testing.T) {
	spec := ckptSpec("skyran")
	spec.Epochs = 2
	plain, _, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpted, _, err := Run(context.Background(), spec, Options{
		Checkpoint: &CheckpointConfig{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MarshalResult(plain)
	b, _ := MarshalResult(ckpted)
	if !bytes.Equal(a, b) {
		t.Fatal("checkpointing changed the run's output")
	}
}

// TestResumeV1Checkpoints resumes checkpoints written in earlier
// payload versions and pins the SHA-256 of each resumed MarshalResult.
// Version 1 carried a single UAV's "world" in the old one-cell layout
// and a fleet's "multiworld" section; version 2 wrote one "world"
// section, a sim.State, for both. Each fixture is epoch-00001.ckpt of
// one of these runs, written with -checkpoint-dir by a skyranctl that
// wrote its version, and each hash is that run's uninterrupted -json
// output:
//
//	skyranctl -terrain FLAT -ues 3 -controller random -budget 200 -epochs 3 -serve 2 -seed 9 \
//	    -traffic onoff -traffic-rate 6e6 -fault-gtpu-loss 0.1 -fault-ue-churn 0.3 -fault-ue-churn-out 0.5 -json
//	skyranctl -terrain FLAT -ues 6 -cells 2 -mobility 20 -handover-hysteresis 1 -handover-ttt 0.1 \
//	    -traffic cbr -traffic-rate 4e5 -serve 5 -epochs 3 -seed 9 -json
//
// The single UAV's fixtures hold a backlog and fault counters; the
// fleet's hold the state after three handovers.
func TestResumeV1Checkpoints(t *testing.T) {
	const single, fleet = "cf242891d9192c4958bdbcf7452f7ad0467c3d1d33dc01796c80c1f2d258a203",
		"9acc0841cc864a757fcbe9bc43991fc54993f11d324b018265a9a649dab90a12"
	for _, tc := range []struct {
		file    string
		version uint16
		want    string
	}{
		{"v1-single-uav.ckpt", 1, single},
		{"v1-fleet.ckpt", 1, fleet},
		{"v2-single-uav.ckpt", 2, single},
		{"v2-fleet.ckpt", 2, fleet},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			c, err := checkpoint.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.Version != tc.version {
				t.Fatalf("fixture has payload version %d, want %d", c.Version, tc.version)
			}
			res, _, err := Resume(context.Background(), path, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("resumed result SHA-256 %s, golden %s", got, tc.want)
			}
		})
	}
}

// TestInspectRejectsWhatResumeRejects: a checkpoint whose payload
// version this build does not read, or whose header fingerprint
// differs from its embedded spec, fails InspectCheckpoint with the same
// error Resume gives, instead of listing as OK.
func TestInspectRejectsWhatResumeRejects(t *testing.T) {
	spec := ckptSpec("random")
	spec.Epochs = 1
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), spec, Options{Checkpoint: &CheckpointConfig{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, checkpoint.EpochFileName(1))
	for _, tc := range []struct {
		name string
		edit func(c *checkpoint.Container)
		want error
	}{
		{"payload-version-0", func(c *checkpoint.Container) { c.Version = 0 }, checkpoint.ErrVersion},
		{"payload-version-next", func(c *checkpoint.Container) { c.Version = checkpointPayloadVersion + 1 }, checkpoint.ErrVersion},
		{"header-fingerprint", func(c *checkpoint.Container) { c.Fingerprint ^= 1 }, checkpoint.ErrFingerprint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := checkpoint.ReadFile(good)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(c)
			bad := filepath.Join(t.TempDir(), checkpoint.EpochFileName(1))
			if _, err := checkpoint.WriteFileAtomic(bad, c); err != nil {
				t.Fatal(err)
			}
			if _, err := InspectCheckpoint(bad); !errors.Is(err, tc.want) {
				t.Errorf("InspectCheckpoint: got %v, want %v", err, tc.want)
			}
			if _, _, err := Resume(context.Background(), bad, nil, Options{}); !errors.Is(err, tc.want) {
				t.Errorf("Resume: got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestResumeRejectsRecordTraceFirst: trace capture cannot be combined
// with resume, and Resume says so before it reads or builds anything.
func TestResumeRejectsRecordTraceFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), checkpoint.EpochFileName(1))
	_, _, err := Resume(context.Background(), missing, nil, Options{RecordTrace: filepath.Join(t.TempDir(), "t.trace")})
	if err == nil || !strings.Contains(err.Error(), "trace capture") {
		t.Fatalf("got %v, want the trace-capture error", err)
	}
}
