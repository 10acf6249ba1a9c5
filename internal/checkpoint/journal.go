package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Journal is a directory of durable lifecycle records of one container
// kind, one file per record: Dir/<prefix><n>.ckpt with n ≥ 1. A record
// is rewritten whole, atomically, at each transition, and a restart
// reloads whatever survived intact; the daemon's job journal and the
// coordinator's campaign journal say only what a record holds.
type Journal struct {
	Dir          string
	prefix, kind string
}

// OpenJournal creates dir and proves it writable, so broken persistence
// fails at startup instead of at the first write.
func OpenJournal(dir, prefix, kind string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: journal dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: journal dir %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name()) //nolint:errcheck
	return &Journal{Dir: dir, prefix: prefix, kind: kind}, nil
}

// Path returns the record file for id.
func (j *Journal) Path(id string) string { return filepath.Join(j.Dir, id+FileExt) }

// Num returns the n of a "<prefix><n>" ID, or -1.
func (j *Journal) Num(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, j.prefix))
	if !strings.HasPrefix(id, j.prefix) || err != nil || n <= 0 {
		return -1
	}
	return n
}

// Write commits id's record through WriteFileAtomic.
func (j *Journal) Write(id string, c *Container) error {
	_, err := WriteFileAtomic(j.Path(id), c)
	return err
}

// IDs lists the IDs of the files named <prefix><n><ext> in the
// journal, ascending by n.
func (j *Journal) IDs(ext string) []string {
	entries, _ := os.ReadDir(j.Dir) // OpenJournal proved the dir usable; a later failure lists nothing
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ext); ok && !e.IsDir() && j.Num(id) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return j.Num(ids[a]) < j.Num(ids[b]) })
	return ids
}

// Decode verifies b as one record: an intact container of the
// journal's kind.
func (j *Journal) Decode(b []byte) (*Container, error) {
	c, err := Decode(b)
	if err == nil && c.Kind != j.kind {
		return nil, fmt.Errorf("%w: %q, want %q", ErrKind, c.Kind, j.kind)
	}
	return c, err
}

// Load hands every record that passes Decode to decode, in ascending
// ID order. A file that fails Decode or is rejected by decode is
// skipped and counted in corrupt: recovery degrades to whatever
// survived, and the caller surfaces the damage instead of silently
// forgetting records.
func (j *Journal) Load(decode func(id string, c *Container) error) (corrupt int) {
	for _, id := range j.IDs(FileExt) {
		b, _ := os.ReadFile(j.Path(id)) // an unreadable file decodes as truncated
		if c, err := j.Decode(b); err != nil || decode(id, c) != nil {
			corrupt++
		}
	}
	return corrupt
}

// Sweep applies retention to the terminal records, given in ascending
// ID order: it keeps the newest retain of them (0 keeps all) and drops
// any whose file is older than maxAge at now (0 keeps all). It removes
// the collected files and returns their IDs; what else a record holds
// is the caller's to free. Callers pass only terminal records, so a
// live one is never collected.
func (j *Journal) Sweep(terminal []string, retain int, maxAge time.Duration, now time.Time) []string {
	var swept []string
	for i, id := range terminal {
		drop := retain > 0 && i < len(terminal)-retain
		if !drop && maxAge > 0 {
			st, err := os.Stat(j.Path(id))
			drop = err == nil && now.Sub(st.ModTime()) > maxAge
		}
		if drop && os.Remove(j.Path(id)) == nil {
			swept = append(swept, id)
		}
	}
	return swept
}
