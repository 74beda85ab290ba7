// Package sim provides the deterministic randomness and distribution
// substrate used by every stochastic component of the reproduction.
//
// The paper's methodology is evaluated on a synthetic society (the live 2012
// Facebook platform is unavailable), so reproducibility of every generated
// world matters: a world must be a pure function of (scenario, seed). To get
// that, sim exposes named, splittable PRNG streams. Two streams derived from
// the same root seed but different labels are statistically independent, and
// adding a new consumer of randomness never perturbs the draws seen by
// existing consumers.
package sim

import (
	"math"
	"math/bits"
)

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is the canonical seeding generator recommended by the xoshiro
// authors; it passes BigCrush and is used here both as a seeder and as a
// label hasher.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashLabel folds a string label into a 64-bit value using SplitMix64 over
// the bytes. It is stable across runs and platforms.
func hashLabel(label string) uint64 {
	state := uint64(0x243f6a8885a308d3) // pi digits; arbitrary fixed salt
	for i := 0; i < len(label); i++ {
		state ^= uint64(label[i]) << (8 * uint(i%8))
		splitmix64(&state)
	}
	return splitmix64(&state)
}

// Rand is a small, fast, deterministic PRNG (xoshiro256**) with helpers for
// the distributions the world generator needs. It is NOT safe for concurrent
// use; derive per-goroutine streams with Stream instead of sharing.
type Rand struct {
	s  [4]uint64
	id uint64 // identity at construction; basis for Stream derivation
}

// New returns a generator seeded from seed. Any seed, including zero, yields
// a well-mixed state.
func New(seed uint64) *Rand {
	return newWithID(seed)
}

func newWithID(id uint64) *Rand {
	r := seeded(id)
	return &r
}

// seeded is the one way a generator's state is derived from its identity.
func seeded(id uint64) Rand {
	r := Rand{id: id}
	state := id
	for i := range r.s {
		r.s[i] = splitmix64(&state)
	}
	return r
}

// Stream derives an independent generator from r's original identity and a
// label. Streams with distinct labels are independent; calling Stream does
// not consume randomness from r, so consumers can be added or reordered
// without disturbing sibling streams.
func (r *Rand) Stream(label string) *Rand {
	// Key off the generator's construction-time identity rather than the
	// current state so stream derivation is order- and consumption-
	// independent.
	state := r.id ^ hashLabel(label)
	return newWithID(splitmix64(&state))
}

// StreamN derives an independent child generator from a label and an index:
// StreamN("students", 3) is the canonical numbered-shard form of
// Stream("students/3"), without the fmt round trip. Sharded consumers (the
// parallel world generator's per-school and per-chunk workers) use it so a
// shard's randomness is a pure function of (root seed, label, index) —
// independent of worker count, scheduling order, and sibling shards.
func (r *Rand) StreamN(label string, n int) *Rand {
	s := r.Streams(label).N(n)
	return &s
}

// Streams is the family of numbered streams StreamN(label, n) derives from
// r, with the label hashed once. A consumer that derives one stream per
// person keeps a Streams and calls N, which builds no string and allocates
// nothing.
type Streams struct {
	base uint64 // r.id ^ hashLabel(label)
}

// Streams returns the family of r's numbered streams under label.
func (r *Rand) Streams(label string) Streams {
	return Streams{base: r.id ^ hashLabel(label)}
}

// N returns stream n of the family by value: the generator
// StreamN(label, n) returns.
func (s Streams) N(n int) Rand {
	state := s.base ^ splitmix64ConstMix(uint64(n))
	return seeded(splitmix64(&state))
}

// splitmix64ConstMix mixes a small integer into a well-spread 64-bit
// value so StreamN(label, 0) and StreamN(label, 1) share no state structure.
func splitmix64ConstMix(v uint64) uint64 {
	state := v ^ 0x9e3779b97f4a7c15
	return splitmix64(&state)
}

// xoshiro is one xoshiro256** step: the output for state (s0, s1, s2, s3)
// and the state after it. It is small enough to inline, so Hits can run
// it over state held in locals.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Uint64 returns the next 64 random bits (xoshiro256** step).
func (r *Rand) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// IntBetween returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *Rand) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("sim: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Hits makes n successive Bool(p) draws and calls hit(i) for each draw i
// that comes up true, leaving r in the state those n Bool calls would. It
// keeps the generator state in locals, so a long run of rare hits costs
// little more than its draws.
func (r *Rand) Hits(p float64, n int, hit func(i int)) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			hit(i)
		}
		return
	}
	// Bool tests Float64() < p, that is (x>>11)/2⁵³ < p. Scaling both
	// sides by 2⁵³ is exact, so the test is the integer x>>11 < ⌈p·2⁵³⌉.
	// NaN fails every comparison: it draws and never hits, as Bool does.
	var threshold uint64
	if !math.IsNaN(p) {
		threshold = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < n; i++ {
		var x uint64
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		if x>>11 < threshold {
			hit(i)
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// NormInt returns round(mean + stddev*N(0,1)) clamped to [min, max].
func (r *Rand) NormInt(mean, stddev float64, min, max int) int {
	v := int(math.Round(mean + stddev*r.NormFloat64()))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Poisson returns a Poisson(lambda) variate using Knuth's method for small
// lambda and a normal approximation above 30 (adequate for degree models).
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		return r.NormInt(lambda, math.Sqrt(lambda), 0, int(lambda*4)+16)
	}
	limit := math.Exp(-lambda)
	p := 1.0
	k := 0
	for p > limit {
		p *= r.Float64()
		k++
	}
	return k - 1
}

// Shuffle permutes the n elements addressed by swap with Fisher-Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleInts returns k distinct values from [0, n) in random order. If
// k >= n it returns a permutation of all n values.
func (r *Rand) SampleInts(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Floyd's algorithm: O(k) expected, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative weights are treated as zero.
// It panics if no weight is positive.
func (r *Rand) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("sim: WeightedChoice with no positive weight")
	}
	target := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target < 0 {
			return i
		}
	}
	return len(weights) - 1
}
