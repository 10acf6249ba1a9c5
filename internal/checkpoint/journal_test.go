package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func writeRecord(t *testing.T, j *Journal, id, kind string) {
	t.Helper()
	c := New(kind, 1, 0)
	c.Add("id", []byte(id))
	if err := j.Write(id, c); err != nil {
		t.Fatal(err)
	}
}

func TestOpenJournalFailsFast(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(filepath.Join(blocker, "journal"), "j", KindJobJournal); err == nil {
		t.Fatal("OpenJournal accepted a dir under a regular file")
	}
}

func TestJournalNum(t *testing.T) {
	j := &Journal{prefix: "c"}
	for id, want := range map[string]int{"c1": 1, "c42": 42, "c0": -1, "c-3": -1, "c": -1, "j7": -1, "c7x": -1, "7": -1} {
		if got := j.Num(id); got != want {
			t.Errorf("Num(%q) = %d, want %d", id, got, want)
		}
	}
}

// Load visits intact records of the journal's kind in numeric ID
// order, and counts every file it skips: damaged, foreign-kind, or
// rejected by the caller. Files whose names are not <prefix><n>.ckpt
// are not records at all.
func TestJournalLoad(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"), "c", KindCampaignJournal)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c10", "c2", "c1", "c5"} {
		writeRecord(t, j, id, KindCampaignJournal)
	}
	writeRecord(t, j, "c3", KindJobJournal)
	writeRecord(t, j, "j4", KindCampaignJournal)
	raw, err := os.ReadFile(j.Path("c5"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(j.Path("c5"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"notes.ckpt", "c6.json", ".c7.ckpt.tmp-1"} {
		if err := os.WriteFile(filepath.Join(j.Dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var seen []string
	corrupt := j.Load(func(id string, c *Container) error {
		seen = append(seen, id)
		if got, _ := c.Section("id"); string(got) != id {
			t.Errorf("record %s holds %q", id, got)
		}
		if id == "c2" {
			return errors.New("rejected")
		}
		return nil
	})
	if want := []string{"c1", "c2", "c10"}; !slices.Equal(seen, want) {
		t.Errorf("Load visited %v, want %v", seen, want)
	}
	if corrupt != 3 { // c2 rejected, c3 foreign kind, c5 flipped
		t.Errorf("corrupt = %d, want 3", corrupt)
	}
	if _, err := j.Decode(raw); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode(flipped) = %v, want ErrCorrupt", err)
	}
}

// Sweep keeps the newest retain terminal records, drops older-than-max-
// age ones, and removes only what it reports.
func TestJournalSweep(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), "j", KindJobJournal)
	if err != nil {
		t.Fatal(err)
	}
	terminal := []string{"j1", "j2", "j3", "j4"}
	for _, id := range append(terminal, "j5") {
		writeRecord(t, j, id, KindJobJournal)
	}
	now := time.Now()
	old := now.Add(-2 * time.Hour)
	if err := os.Chtimes(j.Path("j4"), old, old); err != nil {
		t.Fatal(err)
	}
	if got := j.Sweep(terminal, 0, 0, now); got != nil {
		t.Fatalf("Sweep with retention off collected %v", got)
	}
	got := j.Sweep(terminal, 2, time.Hour, now)
	if want := []string{"j1", "j2", "j4"}; !slices.Equal(got, want) {
		t.Fatalf("Sweep collected %v, want %v", got, want)
	}
	left := j.IDs(FileExt)
	if want := []string{"j3", "j5"}; !slices.Equal(left, want) {
		t.Fatalf("journal holds %v after sweep, want %v", left, want)
	}
}
