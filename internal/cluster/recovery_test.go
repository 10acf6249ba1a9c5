package cluster

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
)

// The tentpole golden test for coordinator crash recovery: kill the
// coordinator mid-campaign (workers keep running), restart it against
// the same journal directory, and the recovered campaign must merge to
// bytes identical to an uninterrupted single-process run. The restart
// preserves the campaign ID, so re-dispatched shards carry the same
// IdemSalt and the workers' idempotency keys re-adopt sub-jobs that
// survived the coordinator's death.
func TestCoordinatorCrashRecoveryByteIdentical(t *testing.T) {
	template := campaignTemplate(2)
	seeds := []int64{21, 22, 23, 24}
	want := localExpected(t, template, seeds)

	journal := t.TempDir()
	w := startWorkerD(t)
	cfg := Config{
		WorkerAddrs: []string{w.ts.URL},
		ShardSeeds:  1,
		PollEvery:   30 * time.Millisecond,
		JournalDir:  journal,
	}
	c1 := newCoordinator(t, cfg)
	cm, err := c1.SubmitCampaign(template, seeds)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first result to land in the journal, then "crash":
	// Close cancels everything in flight but — unlike a real failure —
	// never journals a terminal state, exactly like a SIGKILL would.
	deadline := time.Now().Add(time.Minute)
	for cm.MergedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no result arrived before the crash point")
		}
		time.Sleep(20 * time.Millisecond)
	}
	c1.Close()

	box, err := checkpoint.ReadFile(c1.journal.Path(cm.ID))
	if err != nil {
		t.Fatalf("campaign journal unreadable after crash: %v", err)
	}
	if box.Kind != checkpoint.KindCampaignJournal {
		t.Fatalf("journal kind = %q", box.Kind)
	}

	reg := metrics.NewRegistry()
	cfg.Registry = reg
	c2 := newCoordinator(t, cfg)
	cm2, ok := c2.Get(cm.ID)
	if !ok {
		t.Fatalf("restarted coordinator lost campaign %s", cm.ID)
	}
	if !cm2.Recovered() {
		t.Error("recovered campaign not flagged as recovered")
	}
	awaitCampaign(t, cm2)
	if cm2.State() != CampaignSucceeded {
		t.Fatalf("recovered campaign %s: %s", cm2.State(), cm2.Err())
	}
	if !bytes.Equal(cm2.Merged(), want) {
		t.Error("merged bytes after crash+recovery differ from uninterrupted run")
	}
	if v := reg.Counter("skyran_cluster_campaigns_recovered_total", "").Value(); v < 1 {
		t.Errorf("campaigns_recovered_total = %v, want >= 1", v)
	}

	// A new submission must not collide with the recovered ID space.
	cm3, err := c2.SubmitCampaign(template, []int64{31})
	if err != nil {
		t.Fatal(err)
	}
	if c2.journal.Num(cm3.ID) <= c2.journal.Num(cm.ID) {
		t.Errorf("post-recovery campaign ID %s does not advance past %s", cm3.ID, cm.ID)
	}
	awaitCampaign(t, cm3)
}

// A restart after a campaign finished recreates it terminal — without
// re-running anything — and re-merges to the exact bytes the pre-crash
// coordinator served. Corrupt journal files are skipped and counted.
func TestCoordinatorRestartRecreatesTerminalCampaigns(t *testing.T) {
	template := campaignTemplate(1)
	seeds := []int64{5, 6}

	journal := t.TempDir()
	w := startWorkerD(t)
	cfg := Config{
		WorkerAddrs: []string{w.ts.URL},
		PollEvery:   30 * time.Millisecond,
		JournalDir:  journal,
	}
	c1 := newCoordinator(t, cfg)
	cm, err := c1.SubmitCampaign(template, seeds)
	if err != nil {
		t.Fatal(err)
	}
	awaitCampaign(t, cm)
	want := cm.Merged()
	if len(want) == 0 {
		t.Fatalf("campaign did not succeed: %s", cm.Err())
	}
	c1.Close()

	// Plant a corrupt journal file beside the good one.
	if err := os.WriteFile(c1.journal.Path("c9"), []byte("SKYRBOX1 but not really"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	cfg.Registry = reg
	c2 := newCoordinator(t, cfg)
	cm2, ok := c2.Get(cm.ID)
	if !ok {
		t.Fatalf("terminal campaign %s not recreated", cm.ID)
	}
	if cm2.State() != CampaignSucceeded {
		t.Fatalf("recreated campaign state = %s", cm2.State())
	}
	select {
	case <-cm2.Done():
	default:
		t.Fatal("recreated terminal campaign's Done is not closed")
	}
	if !bytes.Equal(cm2.Merged(), want) {
		t.Error("re-merged bytes differ from pre-restart bytes")
	}
	if v := reg.Counter("skyran_cluster_journal_corrupt_total", "").Value(); v < 1 {
		t.Errorf("journal_corrupt_total = %v, want >= 1", v)
	}
	if v := reg.Counter("skyran_cluster_campaigns_recovered_total", "").Value(); v != 0 {
		t.Errorf("terminal recreation counted as recovery: %v", v)
	}
}

// Journal GC: with retention set, a restart sweeps the oldest terminal
// campaign journals and counts them.
func TestJournalGCRetention(t *testing.T) {
	template := campaignTemplate(1)
	journal := t.TempDir()
	w := startWorkerD(t)
	cfg := Config{
		WorkerAddrs: []string{w.ts.URL},
		PollEvery:   30 * time.Millisecond,
		JournalDir:  journal,
	}
	c1 := newCoordinator(t, cfg)
	for i := int64(1); i <= 3; i++ {
		cm, err := c1.SubmitCampaign(template, []int64{i})
		if err != nil {
			t.Fatal(err)
		}
		awaitCampaign(t, cm)
	}
	c1.Close()

	reg := metrics.NewRegistry()
	cfg.Registry = reg
	cfg.JournalRetain = 1
	c2 := newCoordinator(t, cfg)
	files, err := checkpoint.ListDir(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("retention kept %d journal files, want 1: %v", len(files), files)
	}
	if v := reg.Counter("skyran_journal_gc_total", "").Value(); v != 2 {
		t.Errorf("journal_gc_total = %v, want 2", v)
	}
	// The newest campaign survived.
	if _, ok := c2.Get("c3"); !ok {
		t.Error("newest campaign journal was collected")
	}
	if _, ok := c2.Get("c1"); ok {
		t.Error("collected campaign still in the table")
	}
}

// Hedged dispatch: with a tiny HedgeAfter, a slow shard is hedged to
// the second worker and the campaign still merges byte-identically.
func TestHedgedDispatchByteIdentical(t *testing.T) {
	template := campaignTemplate(2)
	seeds := []int64{41}
	want := localExpected(t, template, seeds)

	wa, wb := startWorkerD(t), startWorkerD(t)
	reg := metrics.NewRegistry()
	c := newCoordinator(t, Config{
		WorkerAddrs: []string{wa.ts.URL, wb.ts.URL},
		ShardSeeds:  1,
		PollEvery:   30 * time.Millisecond,
		HedgeAfter:  50 * time.Millisecond,
		Registry:    reg,
	})
	cm, err := c.SubmitCampaign(template, seeds)
	if err != nil {
		t.Fatal(err)
	}
	awaitCampaign(t, cm)
	if cm.State() != CampaignSucceeded {
		t.Fatalf("campaign %s: %s", cm.State(), cm.Err())
	}
	if !bytes.Equal(cm.Merged(), want) {
		t.Error("hedged merged bytes differ from local merge")
	}
	if v := reg.Counter("skyran_cluster_hedges_total", "").Value(); v < 1 {
		t.Errorf("hedges_total = %v, want >= 1 (job runtime >> HedgeAfter)", v)
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(2, 10*time.Second, clock)

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("did not open at threshold")
	}
	now = now.Add(9 * time.Second)
	if b.State() != BreakerOpen {
		t.Fatal("opened breaker closed before cooldown")
	}
	now = now.Add(time.Second)
	if b.State() != BreakerHalfOpen || !b.Allow() {
		t.Fatal("cooldown did not half-open the breaker")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("half-open failure did not re-open")
	}
	now = now.Add(10 * time.Second)
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("success did not close the breaker")
	}
}
