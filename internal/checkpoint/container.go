// Package checkpoint implements the versioned, self-describing
// container format shared by SkyRAN's durable artifacts — full
// simulation checkpoints, persisted REM stores, traffic traces and the
// job and campaign journals (journal.go). A container is a magic
// header, a format version, a kind string, a scenario fingerprint, and
// a list of named sections each protected by its own CRC, closed by a
// trailer CRC over the whole file. Corrupt, truncated or mismatched
// files fail loudly with distinct errors instead of decoding garbage.
//
// Layout (all integers big-endian):
//
//	magic     [8]byte  "SKYRBOX1"
//	version   uint16   container layout version (1)
//	kindLen   uint8    + kind bytes (e.g. "skyran/checkpoint")
//	payloadV  uint16   format version of the payload sections
//	fprint    uint64   scenario fingerprint (0 when not applicable)
//	nSections uint32
//	per section:
//	  nameLen uint16   + name bytes
//	  dataLen uint64   + data bytes
//	  crc32   uint32   IEEE CRC of the data bytes
//	trailer   uint32   IEEE CRC of every preceding byte
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Magic identifies a container file.
var Magic = [8]byte{'S', 'K', 'Y', 'R', 'B', 'O', 'X', '1'}

// containerVersion is the layout version written by this build.
const containerVersion = 1

// Container kinds in use.
const (
	// KindCheckpoint is a full simulation checkpoint (scenario state at
	// an epoch boundary).
	KindCheckpoint = "skyran/checkpoint"
	// KindREMStore is a persisted rem.Store.
	KindREMStore = "skyran/rem-store"
	// KindTrafficTrace is a recorded traffic workload (packet arrivals
	// plus phase-start UE positions) for deterministic replay.
	KindTrafficTrace = "skyran/traffic-trace"
	// KindJobJournal is a daemon's durable job lifecycle record (spec,
	// state, idempotency key).
	KindJobJournal = "skyran/job-journal"
	// KindCampaignJournal is a cluster coordinator's durable campaign
	// lifecycle record (template, seed set, per-seed progress).
	KindCampaignJournal = "skyran/campaign-journal"
)

// Distinct failure classes, so callers (and operators reading daemon
// errors) can tell a foreign file from a damaged one from a snapshot
// of the wrong scenario.
var (
	// ErrBadMagic means the file is not a SkyRAN container at all.
	ErrBadMagic = errors.New("checkpoint: bad magic (not a SkyRAN container)")
	// ErrVersion means the container layout is newer than this build.
	ErrVersion = errors.New("checkpoint: unsupported container version")
	// ErrCorrupt means a CRC check failed — the file was damaged after
	// it was written (bit flip, partial overwrite).
	ErrCorrupt = errors.New("checkpoint: CRC mismatch (corrupt container)")
	// ErrTruncated means the file ended before the declared content.
	ErrTruncated = errors.New("checkpoint: truncated container")
	// ErrFingerprint means the snapshot belongs to a different scenario
	// than the one it is being restored into.
	ErrFingerprint = errors.New("checkpoint: scenario fingerprint mismatch")
	// ErrKind means the container holds a different artifact kind.
	ErrKind = errors.New("checkpoint: unexpected container kind")
)

// Section is one named payload.
type Section struct {
	Name string
	Data []byte
}

// Container is an in-memory container, either under construction or
// just decoded.
type Container struct {
	// Kind tags what the container holds (KindCheckpoint, KindREMStore).
	Kind string
	// Version is the payload format version (per kind).
	Version uint16
	// Fingerprint ties the container to the scenario that produced it.
	Fingerprint uint64

	sections []Section
}

// New starts an empty container.
func New(kind string, version uint16, fingerprint uint64) *Container {
	return &Container{Kind: kind, Version: version, Fingerprint: fingerprint}
}

// Add appends a section. Names should be unique; Section returns the
// first match.
func (c *Container) Add(name string, data []byte) {
	c.sections = append(c.sections, Section{Name: name, Data: data})
}

// Section returns the named section's payload.
func (c *Container) Section(name string) ([]byte, bool) {
	for _, s := range c.sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// Sections returns the sections in file order.
func (c *Container) Sections() []Section { return c.sections }

// Encode renders the container to bytes.
func (c *Container) Encode() ([]byte, error) {
	if len(c.Kind) > 255 {
		return nil, fmt.Errorf("checkpoint: kind %q too long", c.Kind)
	}
	var buf bytes.Buffer
	buf.Write(Magic[:])
	be := binary.BigEndian
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	writeU16 := func(v uint16) { be.PutUint16(u16[:], v); buf.Write(u16[:]) }
	writeU32 := func(v uint32) { be.PutUint32(u32[:], v); buf.Write(u32[:]) }
	writeU64 := func(v uint64) { be.PutUint64(u64[:], v); buf.Write(u64[:]) }

	writeU16(containerVersion)
	buf.WriteByte(byte(len(c.Kind)))
	buf.WriteString(c.Kind)
	writeU16(c.Version)
	writeU64(c.Fingerprint)
	writeU32(uint32(len(c.sections)))
	for _, s := range c.sections {
		if len(s.Name) > 65535 {
			return nil, fmt.Errorf("checkpoint: section name %q too long", s.Name)
		}
		writeU16(uint16(len(s.Name)))
		buf.WriteString(s.Name)
		writeU64(uint64(len(s.Data)))
		buf.Write(s.Data)
		writeU32(crc32.ChecksumIEEE(s.Data))
	}
	writeU32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes(), nil
}

// Decode parses and verifies a container from bytes: magic, layout
// version, every section CRC and the trailer CRC.
func Decode(b []byte) (*Container, error) {
	if len(b) < len(Magic) {
		return nil, ErrTruncated
	}
	if !bytes.Equal(b[:len(Magic)], Magic[:]) {
		return nil, ErrBadMagic
	}
	if len(b) < len(Magic)+4 {
		return nil, ErrTruncated
	}
	// Trailer first: a passing whole-file CRC also vouches for the
	// header fields the section walk depends on.
	body, trailer := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != trailer {
		return nil, fmt.Errorf("%w: trailer CRC", ErrCorrupt)
	}

	r := bytes.NewReader(body[len(Magic):])
	readN := func(n int) ([]byte, error) {
		out := make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, ErrTruncated
		}
		return out, nil
	}
	readU16 := func() (uint16, error) {
		v, err := readN(2)
		if err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint16(v), nil
	}
	readU32 := func() (uint32, error) {
		v, err := readN(4)
		if err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(v), nil
	}
	readU64 := func() (uint64, error) {
		v, err := readN(8)
		if err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint64(v), nil
	}

	ver, err := readU16()
	if err != nil {
		return nil, err
	}
	if ver != containerVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, ver, containerVersion)
	}
	kindLen, err := readN(1)
	if err != nil {
		return nil, err
	}
	kind, err := readN(int(kindLen[0]))
	if err != nil {
		return nil, err
	}
	c := &Container{Kind: string(kind)}
	if c.Version, err = readU16(); err != nil {
		return nil, err
	}
	if c.Fingerprint, err = readU64(); err != nil {
		return nil, err
	}
	nSections, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nSections; i++ {
		nameLen, err := readU16()
		if err != nil {
			return nil, err
		}
		name, err := readN(int(nameLen))
		if err != nil {
			return nil, err
		}
		dataLen, err := readU64()
		if err != nil {
			return nil, err
		}
		if dataLen > uint64(r.Len()) {
			return nil, ErrTruncated
		}
		data, err := readN(int(dataLen))
		if err != nil {
			return nil, err
		}
		crc, err := readU32()
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(data) != crc {
			return nil, fmt.Errorf("%w: section %q", ErrCorrupt, string(name))
		}
		c.Add(string(name), data)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return c, nil
}

// ReadFile decodes and verifies a container file.
func ReadFile(path string) (*Container, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteFault intercepts the bytes of a pending durable write. It may
// return a mutated payload (torn prefix, flipped bit) or an error
// (simulated ENOSPC). The disk chaos layer installs one at daemon
// startup; the default is none, leaving writes untouched.
type WriteFault func(path string, data []byte) ([]byte, error)

var (
	writeFaultMu sync.RWMutex
	writeFault   WriteFault
)

// SetWriteFault installs (or, with nil, removes) the process-wide
// write-fault hook and returns the previous one so tests can restore
// it.
func SetWriteFault(f WriteFault) WriteFault {
	writeFaultMu.Lock()
	defer writeFaultMu.Unlock()
	prev := writeFault
	writeFault = f
	return prev
}

func applyWriteFault(path string, data []byte) ([]byte, error) {
	writeFaultMu.RLock()
	f := writeFault
	writeFaultMu.RUnlock()
	if f == nil {
		return data, nil
	}
	return f(path, data)
}

// WriteFileAtomic commits the container to path atomically: encode,
// write to a temp file in the same directory, fsync, rename — so
// readers (and a post-crash recovery scan) never observe a torn file.
// Every durable artifact in the tree — scenario checkpoints, traffic
// traces, job and campaign journals — funnels through here, which is
// also where the disk chaos hook taps in. It returns the encoded size.
func WriteFileAtomic(path string, c *Container) (int64, error) {
	b, err := c.Encode()
	if err != nil {
		return 0, err
	}
	data, err := applyWriteFault(path, b)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return 0, fmt.Errorf("checkpoint: committing %s: %w", path, err)
	}
	return int64(len(b)), nil
}

// Info summarizes a container file for listings.
type Info struct {
	Path        string
	Bytes       int64
	Kind        string
	Version     uint16
	Fingerprint uint64
	Sections    []SectionInfo
	// Err is non-nil when the file failed verification; the other
	// fields are then best-effort.
	Err error
}

// SectionInfo is one section's name and size.
type SectionInfo struct {
	Name  string
	Bytes int
}

// Inspect reads, verifies and summarizes a container file.
func Inspect(path string) Info {
	info := Info{Path: path}
	if st, err := os.Stat(path); err == nil {
		info.Bytes = st.Size()
	}
	c, err := ReadFile(path)
	if err != nil {
		info.Err = err
		return info
	}
	info.Kind = c.Kind
	info.Version = c.Version
	info.Fingerprint = c.Fingerprint
	for _, s := range c.Sections() {
		info.Sections = append(info.Sections, SectionInfo{Name: s.Name, Bytes: len(s.Data)})
	}
	return info
}

// FileExt is the conventional checkpoint file extension.
const FileExt = ".ckpt"

// EpochFileName names the checkpoint written at the given completed
// epoch. Zero-padding keeps lexical and numeric order identical.
func EpochFileName(epoch int) string {
	return fmt.Sprintf("epoch-%05d%s", epoch, FileExt)
}

// ListDir returns the checkpoint files in dir, sorted ascending (so
// the last entry is the newest epoch). A missing directory is an empty
// listing, not an error.
func ListDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == FileExt {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Prune deletes the oldest checkpoints in dir until at most keep
// remain. keep <= 0 keeps everything.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	files, err := ListDir(dir)
	if err != nil {
		return err
	}
	for len(files) > keep {
		if err := os.Remove(files[0]); err != nil {
			return err
		}
		files = files[1:]
	}
	return nil
}
