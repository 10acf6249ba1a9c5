package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/checkpoint"
)

// FuzzCampaignJournal drives the campaign-record reader with arbitrary
// container bytes. It must never panic, and a record it accepts must
// survive the writer's encoding: re-encoded and read back, it yields
// the same recovered state, compared as the writer's bytes (the
// writer's canonical section order and seed spelling are one state
// with any other).
func FuzzCampaignJournal(f *testing.F) {
	jr, err := checkpoint.OpenJournal(f.TempDir(), "c", checkpoint.KindCampaignJournal)
	if err != nil {
		f.Fatal(err)
	}
	written, err := encodeCampaignRecord(campaignRecord{
		Meta: campaignMeta{
			ID: "c1", State: string(CampaignRunning), Seeds: []int64{5, 6, 7},
			SeedErrors: []seedError{{Seed: 7, Error: "panic: poison"}},
		},
		Template:    campaignTemplate(1),
		Results:     map[int64]json.RawMessage{5: json.RawMessage(`{"seed":5}`), 6: json.RawMessage(`{"seed":6}`)},
		Fingerprint: 0xfeed,
	})
	if err != nil {
		f.Fatal(err)
	}
	// The same sections under another kind, and under the right kind
	// with a result section whose name holds no seed.
	foreign := checkpoint.New(checkpoint.KindJobJournal, campaignJournalVersion, 0xfeed)
	badSeed := checkpoint.New(checkpoint.KindCampaignJournal, campaignJournalVersion, 0xfeed)
	for _, sec := range written.Sections() {
		foreign.Add(sec.Name, sec.Data)
		badSeed.Add(sec.Name, sec.Data)
	}
	badSeed.Add("result-x", []byte(`{}`))
	var seeds [][]byte
	for _, box := range []*checkpoint.Container{written, foreign, badSeed} {
		b, err := box.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		seeds = append(seeds, b)
	}
	read := func(b []byte) (campaignRecord, error) {
		box, err := jr.Decode(b)
		if err != nil {
			return campaignRecord{}, err
		}
		return decodeCampaignRecord("c1", box)
	}
	if _, err := read(seeds[0]); err != nil {
		f.Fatalf("the writer's own record rejected: %v", err)
	}
	if _, err := read(seeds[1]); !errors.Is(err, checkpoint.ErrKind) {
		f.Fatalf("foreign-kind record: %v, want ErrKind", err)
	}
	if _, err := read(seeds[2]); err == nil {
		f.Fatal("record with a seedless result section accepted")
	}
	encode := func(t *testing.T, rec campaignRecord) []byte {
		box, err := encodeCampaignRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		b, err := box.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := read(data)
		if err != nil {
			return
		}
		b := encode(t, rec)
		again, err := read(b)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !bytes.Equal(encode(t, again), b) {
			t.Fatal("round trip changed the recovered state")
		}
	})
}
