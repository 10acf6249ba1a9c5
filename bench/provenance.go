package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// provenance says where and on what a result was measured. Every
// result file carries it; numbers from hosts with a different core
// count or CPU are not comparable.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	// GitCommit is "unknown" outside a git checkout; GitDirty is then
	// null.
	GitCommit string `json:"git_commit"`
	GitDirty  *bool  `json:"git_dirty"`
	Time      string `json:"time"`
}

var (
	provOnce sync.Once
	prov     provenance
)

func collectProvenance() provenance {
	provOnce.Do(func() {
		prov = provenance{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			GoVersion:  runtime.Version(),
			Platform:   runtime.GOOS + "/" + runtime.GOARCH,
			GitCommit:  "unknown",
			Time:       time.Now().UTC().Format(time.RFC3339),
		}
		prov.GitCommit, prov.GitDirty = gitState()
	})
	return prov
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState reads the commit and dirty flag of the checkout holding the
// benchmark. Git only runs when the repository root itself has a .git,
// and may not search above it, so a benchmark copied out of its
// repository reads nothing outside its own tree.
func gitState() (string, *bool) {
	root, err := filepath.Abs(repoRoot())
	if err != nil {
		return "unknown", nil
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", nil
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", nil
	}
	status, err := git("status", "--porcelain")
	if err != nil {
		return commit, nil
	}
	dirty := status != ""
	return commit, &dirty
}

// repoRoot is the repository root relative to the working directory:
// "." when run from the root (as bench/run.sh does), ".." when run
// from inside bench/ (go test, or go run .).
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}
