package scenario

import (
	"fmt"
	"path/filepath"
	"sort"
)

// Campaign sharding: a campaign is one scenario spec template fanned
// out over a Monte-Carlo seed range. The cluster coordinator splits the
// range into shards and dispatches each shard to a skyrand worker
// daemon, which fans it into one ordinary job per seed. Because every
// per-seed Result is canonical (scenario.MarshalResult bytes, the same
// at any worker count) and the coordinator merges them in ascending
// seed order, the merged campaign output is byte-identical at any
// topology.

// MaxShardSeeds caps the seeds one shard may carry; a shard is a
// dispatch unit, not a buffer, and anything past this is junk or abuse.
const MaxShardSeeds = 4096

// ShardSpec is the wire form of one campaign shard: a spec template
// plus the seed range this worker runs. The template's own Seed is
// ignored — each listed seed becomes one sub-job via SpecForSeed.
type ShardSpec struct {
	Spec  Spec    `json:"spec"`
	Seeds []int64 `json:"seeds"`
	// CheckpointDir, when set, roots this shard's sub-job checkpoints:
	// the sub-job for seed s checkpoints to SeedCheckpointDir(dir, s)
	// and, before running, resumes from the newest intact checkpoint
	// found there. On a shared filesystem this is what makes a restolen
	// shard (re-dispatched after its worker was evicted) continue from
	// where the dead worker left off, byte-identically.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// IdemSalt namespaces the per-seed idempotency keys the worker
	// derives (typically the campaign ID), so re-dispatching the same
	// shard to the same worker replays its existing sub-jobs instead of
	// double-running them, while distinct campaigns over the same
	// template never share jobs.
	IdemSalt string `json:"idem_salt,omitempty"`
}

// Normalize validates the shard: a normalizable template and a
// non-empty, strictly ascending seed list (ascending order is what
// makes the merge key canonical).
func (ss *ShardSpec) Normalize() error {
	if err := ss.Spec.Normalize(); err != nil {
		return err
	}
	if len(ss.Seeds) == 0 {
		return fmt.Errorf("scenario: shard carries no seeds")
	}
	if len(ss.Seeds) > MaxShardSeeds {
		return fmt.Errorf("scenario: shard carries %d seeds, cap is %d", len(ss.Seeds), MaxShardSeeds)
	}
	for i := 1; i < len(ss.Seeds); i++ {
		if ss.Seeds[i] <= ss.Seeds[i-1] {
			return fmt.Errorf("scenario: shard seeds must be strictly ascending (seed[%d]=%d after %d)",
				i, ss.Seeds[i], ss.Seeds[i-1])
		}
	}
	return nil
}

// CanonicalSeeds returns the canonical form of a Monte-Carlo seed
// set: sorted ascending with duplicates removed, never sharing memory
// with the input. Campaign results are keyed by seed, so submission
// order and repetition never matter; canonicalizing up front is what
// makes the merged campaign document deterministic. An empty set is an
// error — a campaign with no seeds runs nothing.
func CanonicalSeeds(seeds []int64) ([]int64, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("scenario: seed set is empty")
	}
	sorted := append([]int64(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:1]
	for _, s := range sorted[1:] {
		if s != uniq[len(uniq)-1] {
			uniq = append(uniq, s)
		}
	}
	return uniq, nil
}

// SpecForSeed restricts a campaign template to one Monte-Carlo seed:
// the returned spec is the template with its Seed replaced.
func SpecForSeed(template Spec, seed int64) Spec {
	template.Seed = seed
	return template
}

// CampaignFingerprint fingerprints a campaign template with its seed
// zeroed, so every shard of one campaign — whatever seed range it
// carries — maps to the same value. The cluster's scenario-affinity
// router keys on it: shards of one campaign land on one worker, whose
// obstruction/REM caches and checkpoint directory stay warm for them.
func CampaignFingerprint(spec Spec) (uint64, error) {
	spec.Seed = 0
	return Fingerprint(spec)
}

// SeedCheckpointDir is the per-seed checkpoint directory under a shard
// checkpoint root.
func SeedCheckpointDir(root string, seed int64) string {
	return filepath.Join(root, fmt.Sprintf("seed-%d", seed))
}
