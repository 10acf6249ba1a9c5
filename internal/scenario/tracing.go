package scenario

import (
	"fmt"

	"repro/internal/traffic"
)

// Trace capture & replay at the scenario level. A capturing run
// records every serving phase's offered workload; a replay run loads
// the trace, proves it belongs to this scenario (fingerprint check
// below), and serves the recorded arrivals instead of generating
// fresh ones — reproducing the original per-UE KPI rows byte for byte.

// setupTracing wires trace capture (Options.RecordTrace) and trace
// replay (Traffic.Mode == "replay") into a freshly built environment.
func setupTracing(env *runEnv, opts Options) error {
	spec := env.spec
	if opts.RecordTrace != "" {
		if spec.Traffic == nil || spec.Traffic.Model == traffic.ModelFullBuffer {
			return fmt.Errorf("scenario: trace capture requires a packet traffic model")
		}
		if spec.Traffic.Mode == traffic.ModeReplay {
			return fmt.Errorf("scenario: cannot record a trace while replaying one")
		}
		if opts.Checkpoint != nil {
			return fmt.Errorf("scenario: trace capture cannot be combined with checkpointing")
		}
		fp, err := Fingerprint(spec)
		if err != nil {
			return err
		}
		env.m.Capture = traffic.NewCapture(*spec.Traffic, fp)
	}
	if spec.Traffic != nil && spec.Traffic.Mode == traffic.ModeReplay {
		tr, err := LoadReplayTrace(spec)
		if err != nil {
			return err
		}
		env.m.SetReplayTrace(tr)
	}
	return nil
}

// LoadReplayTrace reads the trace a replay spec names and verifies it
// belongs to this scenario: the replay spec with its traffic section
// swapped for the traced one must fingerprint to exactly the capturing
// run's scenario fingerprint — same terrain, UE population, seed,
// faults and knobs, differing only in where the workload comes from.
func LoadReplayTrace(spec Spec) (*traffic.Trace, error) {
	tr, err := traffic.ReadTraceFile(spec.Traffic.TraceFile)
	if err != nil {
		return nil, err
	}
	check := spec
	traced := tr.Spec
	check.Traffic = &traced
	fp, err := Fingerprint(check)
	if err != nil {
		return nil, err
	}
	if fp != tr.Fingerprint {
		return nil, fmt.Errorf("scenario: trace %s was captured from a different scenario (trace fingerprint %016x, this scenario with the traced workload %016x)",
			spec.Traffic.TraceFile, tr.Fingerprint, fp)
	}
	return tr, nil
}
