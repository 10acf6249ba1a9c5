// Package detrand provides deterministic, checkpointable random
// streams that seed in O(1).
//
// Every stream is math/rand's: the same additive lagged-Fibonacci
// register (607 words, tap 273), seeded the same way, so a stream is
// bit-identical to the stdlib source's stream for the same seed through
// every rand.Rand method, and swapping detrand in changes no simulation
// output. Only the cost of seeding differs. The stdlib Seed runs
// ~1,840 LCG steps to fill all 607 words before the first draw; here a
// word is filled when a draw first reads it, from the seed and the
// word's index alone:
//
//   - With s the normalized seed (seed mod 2^31−1, 0 becoming
//     89482311) and x_k = 48271^k·s mod (2^31−1), word i is
//     x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i].
//   - Draw n (from 0) first reads word 333−n while n < 334 and word
//     606−n while n < 273; every other read hits a word an earlier draw
//     already filled or wrote.
//
// A stream that takes 20 draws therefore computes 40 words, not 607,
// and a per-UE, per-phase stream costs about as much as its draws.
//
// New returns a Rand, which also counts its draws: its complete state
// is (seed, draws), so a checkpoint stores two integers instead of
// generator internals, and a restore rebuilds the stream from the seed
// and fast-forwards past the draws already consumed. Stream returns a
// plain *rand.Rand for the ephemeral per-UE, per-phase streams (traffic
// arrivals, fault plans) that are never checkpointed.
package detrand

import (
	"fmt"
	"math/rand"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lcgA = 48271
	lcgM = 1<<31 - 1
)

// lcgPow[i] is 48271^(21+3i) mod (2^31−1): the multiplier taking the
// normalized seed to x_{21+3i}, the first LCG output of word i.
var lcgPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lcgA % lcgM
	}
	for i := range p {
		p[i] = x
		x = x * lcgA % lcgM * lcgA % lcgM * lcgA % lcgM
	}
	return p
}()

// source is math/rand's generator seeded lazily. It counts its draws:
// every rand.Rand method bottoms out in Int63 or Uint64, and both
// advance the register by exactly one step, so the count alone pins
// the stream position and decides which words are still unfilled.
type source struct {
	s         uint64 // normalized seed, in [1, 2^31−1)
	n         uint64 // draws so far
	tap, feed int
	vec       [rngLen]int64
}

// Seed resets the stream to seed, exactly as math/rand's Seed does.
// No word is computed until a draw reads it.
func (src *source) Seed(seed int64) {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = 89482311
	}
	src.s = uint64(seed)
	src.n = 0
	src.tap, src.feed = 0, rngLen-rngTap
}

// word is register word i as math/rand's Seed leaves it.
func (src *source) word(i int) int64 {
	x := src.s * lcgPow[i] % lcgM
	u := int64(x) << 40
	x = x * lcgA % lcgM
	u ^= int64(x) << 20
	x = x * lcgA % lcgM
	return u ^ int64(x) ^ rngCooked[i]
}

func (src *source) Uint64() uint64 {
	src.tap--
	if src.tap < 0 {
		src.tap += rngLen
	}
	src.feed--
	if src.feed < 0 {
		src.feed += rngLen
	}
	// The first 334 draws read their feed word (333−n) for the first
	// time, and the first 273 their tap word (606−n) too.
	if src.n < rngLen-rngTap {
		src.vec[src.feed] = src.word(src.feed)
		if src.n < rngTap {
			src.vec[src.tap] = src.word(src.tap)
		}
	}
	src.n++
	x := src.vec[src.feed] + src.vec[src.tap]
	src.vec[src.feed] = x
	return uint64(x)
}

func (src *source) Int63() int64 { return int64(src.Uint64() & rngMask) }

// Stream returns a plain *rand.Rand over the lazily seeded source: the
// stdlib source's stream for seed, seeded in O(1).
func Stream(seed int64) *rand.Rand {
	src := new(source)
	src.Seed(seed)
	return rand.New(src)
}

// State is the complete serializable state of a Rand.
type State struct {
	// Seed is the seed the stream was created with.
	Seed int64
	// Draws is the number of source draws consumed so far.
	Draws uint64
}

// Rand is a counting random stream. It embeds *rand.Rand, so it is
// usable anywhere a *rand.Rand is (the embedded field passes to APIs
// taking *rand.Rand directly). Do not call Seed or Read on it: Seed
// breaks the seed/state correspondence and Read keeps hidden buffer
// state outside the draw count.
type Rand struct {
	*rand.Rand
	seed int64
	src  source
}

// New returns a counting stream with the stdlib source's stream for
// seed.
func New(seed int64) *Rand {
	r := &Rand{seed: seed}
	r.src.Seed(seed)
	r.Rand = rand.New(&r.src)
	return r
}

// Seed returns the stream's seed.
func (r *Rand) Seed() int64 { return r.seed }

// Draws returns the number of source draws consumed so far.
func (r *Rand) Draws() uint64 { return r.src.n }

// State snapshots the stream.
func (r *Rand) State() State { return State{Seed: r.seed, Draws: r.src.n} }

// Restore fast-forwards the stream to st. The stream must have been
// created with the same seed and must not have advanced past st —
// restore never rewinds; it is meant to be applied to a freshly
// constructed stream (or one that has only replayed a deterministic
// prefix of its history).
func (r *Rand) Restore(st State) error {
	if st.Seed != r.seed {
		return fmt.Errorf("detrand: restoring state for seed %d into stream seeded %d", st.Seed, r.seed)
	}
	if st.Draws < r.src.n {
		return fmt.Errorf("detrand: cannot rewind stream from %d to %d draws", r.src.n, st.Draws)
	}
	for r.src.n < st.Draws {
		r.src.Uint64()
	}
	return nil
}
