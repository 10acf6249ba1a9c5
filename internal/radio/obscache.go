package radio

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/terrain"
)

// Obstruction caching. The ray integral in Model.Obstruction dominates
// every experiment-harness profile: ground-truth REMs, placement scans
// and REM scoring all re-trace the same (grid cell, UE) rays, and the
// harness rebuilds equal worlds several times per Monte-Carlo seed
// (SkyRAN run, Uniform run, truth evaluation). Obstruction loss is a
// pure function of the terrain geometry and the loss constants — it
// does not depend on the shadowing seed — so models built over
// identical terrain share one memoization table, keyed by a content
// fingerprint. The cache is safe for concurrent use: fill
// already calls Obstruction from many goroutines, and the experiment
// engine runs whole seeds in parallel on top of that.

// rayKey identifies a ray by the exact bit patterns of its endpoints.
// Endpoints are not canonicalised: a↔b reversal changes the float
// summation order of the integral, and cache hits must return exactly
// the bits an uncached evaluation would produce.
type rayKey struct {
	ax, ay, az float64
	bx, by, bz float64
}

const (
	obsShardCount = 64
	// obsShardCap bounds each shard; a full shard is cleared rather
	// than evicted entry-wise (entries are cheap to recompute, and
	// measurement flights insert unbounded streams of never-repeated
	// rays that would otherwise pin memory).
	obsShardCap = 2048
)

type obsShard struct {
	mu sync.RWMutex
	m  map[rayKey]float64
}

// obsCache is a sharded concurrent map from ray to obstruction loss.
type obsCache struct {
	shards [obsShardCount]obsShard
}

func newObsCache() *obsCache {
	c := &obsCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[rayKey]float64)
	}
	return c
}

// shardOf hashes the key (FNV-1a over the coordinate bits) to a shard.
func (c *obsCache) shardOf(k rayKey) *obsShard {
	h := uint64(14695981039346656037)
	for _, f := range [6]float64{k.ax, k.ay, k.az, k.bx, k.by, k.bz} {
		b := math.Float64bits(f)
		for s := 0; s < 64; s += 16 {
			h ^= (b >> s) & 0xffff
			h *= 1099511628211
		}
	}
	return &c.shards[h%obsShardCount]
}

// Process-wide hit/miss totals across every model's cache — the
// serving daemon surfaces these on /metrics, where the hit rate is the
// cheapest proxy for "are jobs re-tracing rays the cache already
// holds".
var obsHits, obsMisses atomic.Uint64

// ObsCacheStats returns the process-wide obstruction-cache lookup
// totals since start.
func ObsCacheStats() (hits, misses uint64) {
	return obsHits.Load(), obsMisses.Load()
}

func (c *obsCache) get(k rayKey) (float64, bool) {
	s := c.shardOf(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		obsHits.Add(1)
	} else {
		obsMisses.Add(1)
	}
	return v, ok
}

func (c *obsCache) put(k rayKey, v float64) {
	s := c.shardOf(k)
	s.mu.Lock()
	if len(s.m) >= obsShardCap {
		s.m = make(map[rayKey]float64)
	}
	s.m[k] = v
	s.mu.Unlock()
}

// len returns the total number of cached rays (diagnostics/tests).
func (c *obsCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}

// modelKey identifies the obstruction-relevant part of a Model: the
// terrain content fingerprint, grid geometry, and the loss constants
// the integral reads. Two models with equal keys compute identical
// Obstruction values for every ray.
type modelKey struct {
	terrainHash uint64
	nx, ny      int
	originX     float64
	originY     float64
	invCell     float64
	rayStepM    float64
	buildingDB  float64
	foliageDB   float64
	maxObsDB    float64
}

// obsCaches maps modelKey → *obsCache so equal models (same terrain
// instance and loss params, any shadowing seed) share rays. The
// registry is cleared wholesale when it grows past obsCacheRegistryCap
// distinct models — a crude but sufficient bound for a process that
// sweeps many (terrain, seed) pairs over its lifetime.
var (
	obsCaches           sync.Map // modelKey -> *obsCache
	obsCachesN          int
	obsCachesMu         sync.Mutex
	obsCacheRegistryCap = 16
)

// obsCacheFor returns the shared cache for key, creating it if needed.
func obsCacheFor(key modelKey) *obsCache {
	if c, ok := obsCaches.Load(key); ok {
		return c.(*obsCache)
	}
	obsCachesMu.Lock()
	defer obsCachesMu.Unlock()
	if c, ok := obsCaches.Load(key); ok {
		return c.(*obsCache)
	}
	if obsCachesN >= obsCacheRegistryCap {
		obsCaches.Range(func(k, _ any) bool {
			obsCaches.Delete(k)
			return true
		})
		obsCachesN = 0
	}
	c := newObsCache()
	obsCaches.Store(key, c)
	obsCachesN++
	return c
}

// terrainFingerprint hashes the flattened terrain arrays (FNV-1a over
// height bits and material bytes). Models over byte-identical terrain
// content collide deliberately; anything else cannot.
func terrainFingerprint(height []float64, material []terrain.Material) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range height {
		b := math.Float64bits(f)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	for _, m := range material {
		h ^= uint64(m)
		h *= 1099511628211
	}
	return h
}
