package cluster

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
)

// The campaign journal makes the coordinator crash-recoverable. With
// Config.JournalDir set, every campaign keeps a durable record —
// template, canonical seed set, per-seed results and error rows,
// terminal state — in a container at <dir>/<id>.ckpt, kept by the same
// checkpoint.Journal as the daemon's job records. A restarted
// coordinator loads it, recreates finished campaigns (re-merging to the
// same bytes — merge is a pure function of template × results), and
// relaunches running ones over only their missing seeds. Because the
// campaign ID survives the restart, the re-dispatched shards carry the
// same IdemSalt, so workers' idempotency keys re-adopt sub-jobs that
// kept running through the coordinator's death instead of starting
// duplicates.

// campaignJournalVersion is the payload version of KindCampaignJournal.
const campaignJournalVersion = 1

// seedError is one per-seed failure row in the journal and the merge.
type seedError struct {
	Seed  int64  `json:"seed"`
	Error string `json:"error"`
}

// campaignMeta is the journal's "meta" section.
type campaignMeta struct {
	ID         string      `json:"id"`
	State      string      `json:"state"`
	ErrMsg     string      `json:"error,omitempty"`
	Seeds      []int64     `json:"seeds"`
	SeedErrors []seedError `json:"seed_errors,omitempty"`
}

// campaignRecord is one decoded journal entry.
type campaignRecord struct {
	Meta        campaignMeta
	Template    scenario.Spec
	Results     map[int64]json.RawMessage
	Fingerprint uint64
}

// encodeCampaignRecord is the writer's encoding of one record.
func encodeCampaignRecord(rec campaignRecord) (*checkpoint.Container, error) {
	metaB, err := json.Marshal(rec.Meta)
	if err != nil {
		return nil, err
	}
	tmplB, err := json.Marshal(rec.Template)
	if err != nil {
		return nil, err
	}
	box := checkpoint.New(checkpoint.KindCampaignJournal, campaignJournalVersion, rec.Fingerprint)
	box.Add("meta", metaB)
	box.Add("template", tmplB)
	seeds := make([]int64, 0, len(rec.Results))
	for s := range rec.Results {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	for _, s := range seeds {
		box.Add(fmt.Sprintf("result-%d", s), rec.Results[s])
	}
	return box, nil
}

// decodeCampaignRecord reads the record journaled as id.
func decodeCampaignRecord(id string, box *checkpoint.Container) (rec campaignRecord, err error) {
	rec.Fingerprint = box.Fingerprint
	metaB, okMeta := box.Section("meta")
	tmplB, okTmpl := box.Section("template")
	if !okMeta || !okTmpl {
		return rec, errors.New("cluster: campaign record without meta or template")
	}
	if err := json.Unmarshal(metaB, &rec.Meta); err != nil {
		return rec, err
	}
	if rec.Meta.ID != id {
		return rec, fmt.Errorf("cluster: record %s holds campaign %q", id, rec.Meta.ID)
	}
	if err := json.Unmarshal(tmplB, &rec.Template); err != nil {
		return rec, err
	}
	rec.Results = make(map[int64]json.RawMessage)
	for _, sec := range box.Sections() {
		name, ok := strings.CutPrefix(sec.Name, "result-")
		if !ok {
			continue
		}
		seed, err := strconv.ParseInt(name, 10, 64)
		if err != nil || !json.Valid(sec.Data) {
			return rec, fmt.Errorf("cluster: bad section %q", sec.Name)
		}
		rec.Results[seed] = json.RawMessage(sec.Data)
	}
	return rec, nil
}

// journalCampaign persists the campaign's current state. Best-effort
// after the startup writability probe, like the worker job journal: a
// transient write failure (or an injected disk fault) must not take
// down a running campaign — the next transition rewrites the file.
func (c *Coordinator) journalCampaign(cm *Campaign) {
	if c.journal == nil {
		return
	}
	// Serialize whole snapshot+write cycles per campaign: two shards
	// completing concurrently must not commit an older snapshot last.
	cm.jmu.Lock()
	defer cm.jmu.Unlock()
	cm.mu.Lock()
	rec := campaignRecord{
		Meta:        campaignMeta{ID: cm.ID, State: string(cm.state), ErrMsg: cm.errMsg, Seeds: slices.Clone(cm.Seeds)},
		Template:    cm.Template,
		Results:     make(map[int64]json.RawMessage, len(cm.results)),
		Fingerprint: cm.fp,
	}
	for s, msg := range cm.seedErrs {
		rec.Meta.SeedErrors = append(rec.Meta.SeedErrors, seedError{Seed: s, Error: msg})
	}
	for s, b := range cm.results {
		rec.Results[s] = b
	}
	cm.mu.Unlock()
	slices.SortFunc(rec.Meta.SeedErrors, func(a, b seedError) int { return cmp.Compare(a.Seed, b.Seed) })

	box, err := encodeCampaignRecord(rec)
	if err == nil {
		err = c.journal.Write(cm.ID, box)
	}
	if err != nil {
		c.cfg.Logf("cluster: journaling campaign %s: %v", cm.ID, err)
	}
}

// recoverCampaigns rebuilds the campaign table from the journal and
// relaunches every non-terminal campaign over its missing seeds. It
// returns the campaigns relaunched (the caller starts their runners
// once the coordinator is fully constructed).
func (c *Coordinator) recoverCampaigns() []*Campaign {
	var relaunch []*Campaign
	corrupt := c.journal.Load(func(id string, box *checkpoint.Container) error {
		rec, err := decodeCampaignRecord(id, box)
		if err != nil {
			return err
		}
		c.nextID = max(c.nextID, c.journal.Num(id))
		cm := &Campaign{
			ID:       rec.Meta.ID,
			Template: rec.Template,
			Seeds:    rec.Meta.Seeds,
			fp:       rec.Fingerprint,
			state:    CampaignState(rec.Meta.State),
			errMsg:   rec.Meta.ErrMsg,
			results:  rec.Results,
			seedErrs: make(map[int64]string, len(rec.Meta.SeedErrors)),
			done:     make(chan struct{}),
		}
		for _, se := range rec.Meta.SeedErrors {
			cm.seedErrs[se.Seed] = se.Error
		}
		switch cm.state {
		case CampaignSucceeded:
			// Merge is a pure function of (template, results, error rows):
			// recomputing it yields the exact bytes the pre-crash
			// coordinator served.
			merged, err := MergeResults(cm.Template, cm.results, cm.seedErrs)
			if err != nil {
				cm.state = CampaignFailed
				cm.errMsg = err.Error()
			} else {
				cm.merged = merged
			}
			close(cm.done)
		case CampaignFailed:
			close(cm.done)
		default:
			cm.state = CampaignRunning
			cm.recovered = true
			relaunch = append(relaunch, cm)
		}
		c.campaigns[cm.ID] = cm
		c.order = append(c.order, cm.ID)
		return nil
	})
	if corrupt > 0 {
		c.mJournalCorrupt.Add(float64(corrupt))
		c.cfg.Logf("cluster: skipped %d corrupt campaign journal file(s)", corrupt)
	}
	return relaunch
}

// sweepJournals applies retention to terminal campaign journals
// (JournalRetain, JournalMaxAge) once at startup, after recovery.
// Running campaigns are never collected, and a collected campaign
// leaves the table too, so the API and the journal agree on what
// exists.
func (c *Coordinator) sweepJournals() {
	var terminal []string // campaign IDs, ascending
	for _, id := range c.order {
		if st := c.campaigns[id].State(); st == CampaignSucceeded || st == CampaignFailed {
			terminal = append(terminal, id)
		}
	}
	now := time.Now()
	if c.cfg.Now != nil {
		now = c.cfg.Now()
	}
	for _, id := range c.journal.Sweep(terminal, c.cfg.JournalRetain, c.cfg.JournalMaxAge, now) {
		c.mu.Lock()
		delete(c.campaigns, id)
		c.order = slices.DeleteFunc(c.order, func(o string) bool { return o == id })
		c.mu.Unlock()
		c.mJournalGC.Inc()
	}
}
