// Package chaos injects deterministic failures into the two domains
// field deployments report as dominant and the rest of the tree could
// not yet test: the network between coordinator and workers, and the
// disk under checkpoints and journals. Every injection decision is a
// pure function of (seed, site, attempt) — the same splitmix64-keyed
// discipline internal/fault uses for radio faults — so a chaos run
// replays exactly under a fixed seed, and an all-zero schedule is
// bitwise-identical to running with no chaos layer at all. Draw
// exports the same keyed stream to the daemon's own chaos knobs.
package chaos

import (
	"hash/fnv"
	"math"
)

// drawDomain separates the independent decision streams so that, e.g.,
// raising the reset rate never shifts which requests see latency.
type drawDomain uint64

const (
	domLatency drawDomain = iota + 1
	domReset
	domTruncate
	domPartition
	domTorn
	domENOSPC
	domBitFlip
	domFrac // secondary draw: delay fraction, cut point, flipped bit
	domSite // Draw: a caller's own stream, one per site
)

// splitmix64 is the finalizer used across the repo's seeded streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4b28f966dd52d
	return x ^ (x >> 31)
}

// draw maps (seed, site, attempt, domain) to a uniform float64 in
// [0, 1). site names the injection point (an endpoint host, a file
// name); attempt counts prior operations at that site, so retries and
// later writes see fresh, but still reproducible, randomness.
func draw(seed int64, site string, attempt uint64, dom drawDomain) float64 {
	h := fnv.New64a()
	h.Write([]byte(site)) //nolint:errcheck // fnv never errors
	x := splitmix64(uint64(seed) ^ splitmix64(h.Sum64()^splitmix64(attempt^uint64(dom)<<56)))
	return float64(x>>11) / float64(1<<53)
}

// Draw is draw for decisions made outside this package (the daemon's
// slow handlers and worker crashes): one site per stream, keyed by ordinal.
func Draw(seed int64, site string, attempt uint64) float64 {
	return draw(seed, site, attempt, domSite)
}

// rate clamps a configured probability into [0, 1].
func rate(p float64) float64 {
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	return math.Min(p, 1)
}
