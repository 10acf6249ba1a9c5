package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
)

// runCheckpoints implements `skyranctl checkpoints [dir|file...]`: it
// lists every checkpoint, inspects its embedded scenario, and verifies
// its integrity (magic, kind, payload version, section and trailer
// CRCs, spec fingerprint — the reader Resume uses). The exit status is
// non-zero when any checkpoint fails verification, so the subcommand
// doubles as a fsck for a checkpoint directory.
func runCheckpoints(args []string) error {
	if len(args) > 0 && args[0] == "scrub" {
		return runScrub(args[1:])
	}
	fs := flag.NewFlagSet("checkpoints", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: skyranctl checkpoints <dir-or-file> [...]")
		fmt.Fprintln(os.Stderr, "       skyranctl checkpoints scrub [-remove] <dir>")
		fmt.Fprintln(os.Stderr, "list, inspect and verify checkpoint files (*"+checkpoint.FileExt+")")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}

	var files []string
	for _, arg := range fs.Args() {
		info, err := os.Stat(arg)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		listed, err := checkpoint.ListDir(arg)
		if err != nil {
			return err
		}
		if len(listed) == 0 {
			fmt.Printf("%s: no checkpoints\n", arg)
		}
		files = append(files, listed...)
	}

	bad := 0
	for _, f := range files {
		meta, err := scenario.InspectCheckpoint(f)
		if err != nil {
			bad++
			fmt.Printf("%-28s BAD: %v\n", filepath.Base(f), err)
			continue
		}
		traffic := ""
		if meta.Spec.Traffic != nil {
			traffic = " traffic=" + string(meta.Spec.Traffic.Model)
		}
		kind := meta.Spec.Controller
		if meta.Spec.Cells >= 2 {
			kind = "fleet" // a fleet runs no controller; its Result says "fleet" too
		}
		fmt.Printf("%-28s OK  epoch %d/%d  %s/%s seed=%d%s  %d bytes  fp=%016x\n",
			filepath.Base(f), meta.NextEpoch, meta.Spec.Epochs,
			kind, meta.Spec.Terrain, meta.Spec.Seed, traffic,
			meta.Bytes, meta.Fingerprint)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d checkpoints failed verification", bad, len(files))
	}
	return nil
}

// runScrub implements `skyranctl checkpoints scrub [-remove] <dir>`:
// a recursive fsck-and-GC over a checkpoint tree. It always sweeps the
// orphaned temp files an interrupted atomic write leaves behind;
// with -remove it also deletes corrupt containers, which is safe by
// construction — the recovery ladder falls back to the next-oldest
// intact snapshot or a fresh deterministic rerun. Exit status is
// non-zero while corrupt files remain on disk.
func runScrub(args []string) error {
	fs := flag.NewFlagSet("checkpoints scrub", flag.ExitOnError)
	remove := fs.Bool("remove", false, "delete corrupt container files (temp-file debris is always removed)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: skyranctl checkpoints scrub [-remove] <dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	rep, err := checkpoint.Scrub(fs.Arg(0), *remove)
	if err != nil {
		return err
	}
	for _, f := range rep.Corrupt {
		fmt.Printf("corrupt  %s: %v\n", f.Path, f.Err)
	}
	for _, path := range rep.Removed {
		fmt.Printf("removed  %s\n", path)
	}
	fmt.Printf("%d scanned, %d intact, %d corrupt, %d removed\n",
		rep.Scanned, rep.Intact, len(rep.Corrupt), len(rep.Removed))
	if n := len(rep.Corrupt) - countCorruptRemoved(rep); n > 0 {
		return fmt.Errorf("%d corrupt file(s) remain (rerun with -remove to delete)", n)
	}
	return nil
}

// countCorruptRemoved counts corrupt findings whose file was deleted.
func countCorruptRemoved(rep checkpoint.ScrubReport) int {
	removed := make(map[string]bool, len(rep.Removed))
	for _, p := range rep.Removed {
		removed[p] = true
	}
	n := 0
	for _, f := range rep.Corrupt {
		if removed[f.Path] {
			n++
		}
	}
	return n
}

// validTrafficModels is the -traffic usage string.
func validTrafficModels() string {
	return strings.Join([]string{"cbr", "poisson", "gamma", "weibull", "onoff", "web", "full-buffer"}, ", ")
}

// usageError prints a message plus the flag usage and exits 2, the
// conventional bad-usage status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skyranctl: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
