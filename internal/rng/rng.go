// Package rng centralizes the repository's pseudo-randomness. Every
// experiment, generator and mechanism draws from an explicit *Source so that
// results are bit-reproducible from a master seed, and parallel workers can
// obtain statistically independent streams via Split without sharing locks.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Generator names the base generator behind every Source. Anything that
// persists a stream position (the journal's checkpoints) stamps it, because
// a position means nothing under a different generator.
const Generator = "splitmix64-counter"

// LegacyGenerator names the generator Sources drew from before Generator:
// math/rand's lagged-Fibonacci source. Positions recorded under it cannot
// be resumed.
const LegacyGenerator = "math/rand"

// golden is SplitMix64's Weyl increment γ, 2⁶⁴ divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// Source is a deterministic random stream: math/rand's Rand over SplitMix64
// in counter form (Steele, Lea and Flood, OOPSLA 2014). Child streams
// derived via Split or Named are independent of the parent's subsequent
// draws.
//
// A Source also tracks its position — the count of base generator steps
// consumed so far — so callers wrapping fallible randomized operations can
// snapshot the position with Pos and roll a failed attempt back with
// SeekTo, keeping retries bit-identical (the streaming layer's Flush error
// semantics rely on this).
//
// A Source is NOT safe for concurrent use; give each goroutine its own via
// Split.
type Source struct {
	rand.Rand
	ctr  counter
	seed int64
}

// counter is the base generator. Step n (counting from 1) is the SplitMix64
// finalizer of base + n·γ, so the position n is the whole state: seeking is
// assigning it. Int63 and Uint64 both take exactly one step.
type counter struct {
	base, n uint64
}

func (c *counter) Uint64() uint64 {
	c.n++
	return finalize(c.base + c.n*golden)
}

func (c *counter) Int63() int64 { return int64(c.Uint64() >> 1) }

func (c *counter) Seed(seed int64) {
	// Reseeding in place would leave Source.seed stale, so Seed and
	// Split would describe a stream the Source no longer draws. No caller
	// needs it; fail loudly instead of corrupting determinism.
	panic("rng: reseeding a Source is not supported; create a new Source with rng.New")
}

// New returns a Source seeded with the given seed.
func New(seed int64) *Source {
	s := &Source{ctr: counter{base: uint64(mix(seed, 0))}, seed: seed}
	s.Rand = *rand.New(&s.ctr)
	return s
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Pos returns the source's position: how many base generator steps have been
// consumed since creation (or the last SeekTo). Equal positions on
// equal-seeded sources imply identical future draws.
func (s *Source) Pos() uint64 { return s.ctr.n }

// SeekTo moves the source to any position, earlier or later, as previously
// observed via Pos, in constant time. The embedded Rand is reset so no
// buffered state from the abandoned draws survives.
func (s *Source) SeekTo(pos uint64) {
	s.ctr.n = pos
	s.Rand = *rand.New(&s.ctr)
}

// Float64 returns a uniform draw in [0, 1), one base step. It returns
// exactly what the embedded Rand's Float64 would, without the interface
// call per step: planar-Laplace sampling spends three of these per record.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.ctr.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Split returns the i-th child stream of this source. Children with distinct
// indices, and children of sources with distinct seeds, are independent.
func (s *Source) Split(i int64) *Source {
	return New(mix(s.seed, i))
}

// Named returns a child stream keyed by a string label, useful to decorrelate
// subsystems ("mobility", "noise", ...) without coordinating integer indexes.
func (s *Source) Named(label string) *Source {
	return New(ChildSeed(s.seed, label))
}

// ChildSeed returns the seed Named(label) would build its child from,
// without allocating the source — for callers that keep many per-key seeds
// (the controller's per-user samplers) and draw from them via MixUnit.
func ChildSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label)) //lppm:allow droppederr -- hash.Hash documents that Write never returns an error
	return mix(seed, int64(h.Sum64()))
}

// MixUnit maps (seed, i) to a uniform value in [0, 1) through the SplitMix64
// finalizer: a stateless, allocation-free draw whose value depends only on
// its arguments, so concurrent callers indexing their own counters get
// sequences independent of interleaving.
func MixUnit(seed, i int64) float64 {
	return float64(uint64(mix(seed, i))>>11) / (1 << 53)
}

// mix combines a seed and a stream index into a well-dispersed child seed
// using the SplitMix64 finalizer.
func mix(seed, i int64) int64 {
	return int64(finalize(uint64(seed)*golden + uint64(i) + golden))
}

// finalize is SplitMix64's output function (Stafford's Mix13 variant).
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
