package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestStreamIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume from a before deriving: the derived stream must be identical
	// to one derived from an unconsumed generator, because Stream keys off
	// the initial identity.
	for i := 0; i < 50; i++ {
		a.Uint64()
	}
	sa := a.Stream("friends")
	sb := b.Stream("friends")
	for i := 0; i < 100; i++ {
		if sa.Uint64() != sb.Uint64() {
			t.Fatalf("stream derivation depends on parent consumption (draw %d)", i)
		}
	}
}

func TestStreamLabelsIndependent(t *testing.T) {
	r := New(7)
	x := r.Stream("alpha")
	y := r.Stream("beta")
	matches := 0
	for i := 0; i < 200; i++ {
		if x.Uint64() == y.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("streams with different labels collided %d times", matches)
	}
}

// TestStreamsMatchStreamN checks the label-hashed-once family against the
// per-call derivation StreamN has always made: the identity xor the label
// hash xor the mixed index, one SplitMix64 step, then seeding. Draws taken
// from r first must not matter.
func TestStreamsMatchStreamN(t *testing.T) {
	prop := func(seed uint64, label string, n int32, consumed uint8) bool {
		r := New(seed)
		for i := 0; i < int(consumed); i++ {
			r.Uint64()
		}
		state := seed ^ hashLabel(label) ^ splitmix64ConstMix(uint64(n))
		want := newWithID(splitmix64(&state))
		fam := r.Streams(label)
		return fam.N(int(n)) == *want && *r.StreamN(label, int(n)) == *want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d deviates from expected %.0f", i, c, expect)
		}
	}
}

func TestIntBetween(t *testing.T) {
	r := New(5)
	sawLo, sawHi := false, false
	for i := 0; i < 2000; i++ {
		v := r.IntBetween(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntBetween(3,6) = %d", v)
		}
		sawLo = sawLo || v == 3
		sawHi = sawHi || v == 6
	}
	if !sawLo || !sawHi {
		t.Error("IntBetween never produced an endpoint")
	}
	if got := r.IntBetween(9, 9); got != 9 {
		t.Errorf("degenerate IntBetween(9,9) = %d", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const draws = 100000
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		hits := 0
		for i := 0; i < draws; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bool(%v) frequency %.4f", p, got)
		}
	}
	if r.Bool(-0.5) {
		t.Error("Bool(-0.5) returned true")
	}
	if !r.Bool(1.5) {
		t.Error("Bool(1.5) returned false")
	}
}

// FuzzHitsMatchesBool checks Hits against the loop it replaces: n Bool(p)
// draws must hit the same indices and leave the generator in the same
// state. The seeds cover Bool's edge cases (p ≤ 0 draws nothing, p ≥ 1 hits
// without drawing, NaN draws and never hits) and the thresholds around the
// 2⁻⁵³ grid Float64 draws from.
func FuzzHitsMatchesBool(f *testing.F) {
	for _, p := range []float64{
		math.NaN(), 0, math.Copysign(0, -1), 1, 2, -1, math.Inf(1), math.Inf(-1),
		1 - 0x1p-53, 0x1p-53, 3 * 0x1p-53, 5e-324, 0.04, math.Nextafter(0.04, 1),
	} {
		f.Add(uint64(2013), p, uint16(4096))
	}
	f.Add(uint64(1), 0.5, uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, p float64, n uint16) {
		draws := int(n) % 4097
		ref := New(seed)
		var want []int
		for i := 0; i < draws; i++ {
			if ref.Bool(p) {
				want = append(want, i)
			}
		}
		r := New(seed)
		var got []int
		r.Hits(p, draws, func(i int) { got = append(got, i) })
		if !slices.Equal(got, want) {
			t.Fatalf("Hits(%v, %d) hit %d draws, Bool hit %d", p, draws, len(got), len(want))
		}
		if a, b := r.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("Hits(%v, %d) left the generator at %#x, Bool at %#x", p, draws, a, b)
		}
	})
}

// TestHitsThresholdExact sets up single draws whose 53-bit value k lies on
// either side of p·2⁵³, where an inexact threshold (a floor for the ceiling,
// or one off) would part from Bool. Random seeds reach those draws with
// probability about 2⁻⁵³, so FuzzHitsMatchesBool cannot.
func TestHitsThresholdExact(t *testing.T) {
	inverse := func(a uint64) uint64 { // of odd a, mod 2⁶⁴, by Newton's method
		x := a
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	// withDraw returns a generator whose next Uint64 is k<<11: the
	// xoshiro256** output is rotl(s1·5, 7)·9, which inverts for s1.
	withDraw := func(k uint64) *Rand {
		s1 := bits.RotateLeft64((k<<11)*inverse(9), -7) * inverse(5)
		return &Rand{s: [4]uint64{1, s1, 2, 3}}
	}
	for _, k := range []uint64{0, 1, 2, 3, 1 << 52, 1<<53 - 2, 1<<53 - 1} {
		if got := withDraw(k).Uint64(); got != k<<11 {
			t.Fatalf("withDraw(%d) draws %#x", k, got)
		}
		at := float64(k) / (1 << 53)
		for _, p := range []float64{at, math.Nextafter(at, 0), math.Nextafter(at, 1), 5e-324, 1.5 * 0x1p-53, 1 - 0x1p-53} {
			want := withDraw(k).Bool(p)
			got := false
			withDraw(k).Hits(p, 1, func(int) { got = true })
			if got != want {
				t.Errorf("draw %d, p=%v: Hits hit=%v, Bool=%v", k, p, got, want)
			}
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestNormIntClamps(t *testing.T) {
	r := New(19)
	for i := 0; i < 5000; i++ {
		v := r.NormInt(10, 50, 0, 20)
		if v < 0 || v > 20 {
			t.Fatalf("NormInt clamp violated: %d", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(23)
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		const draws = 50000
		total := 0
		for i := 0; i < draws; i++ {
			v := r.Poisson(lambda)
			if v < 0 {
				t.Fatalf("Poisson(%v) negative", lambda)
			}
			total += v
		}
		mean := float64(total) / draws
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Errorf("Poisson(%v) mean %.3f", lambda, mean)
		}
	}
	if v := r.Poisson(0); v != 0 {
		t.Errorf("Poisson(0) = %d", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(500)
	seen := make([]bool, 500)
	for _, v := range p {
		if v < 0 || v >= 500 || seen[v] {
			t.Fatalf("Perm invalid element %d", v)
		}
		seen[v] = true
	}
}

func TestSampleIntsProperties(t *testing.T) {
	prop := func(seed uint64, nRaw, kRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw % 1200)
		s := New(seed).SampleInts(n, k)
		want := k
		if k > n {
			want = n
		}
		if len(s) != want {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := New(31)
	weights := []float64{1, 0, 3, -2, 6}
	counts := make([]int, len(weights))
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero/negative weights were chosen: %v", counts)
	}
	// Ratios should be ~1:3:6.
	r02 := float64(counts[2]) / float64(counts[0])
	r04 := float64(counts[4]) / float64(counts[0])
	if math.Abs(r02-3) > 0.3 || math.Abs(r04-6) > 0.5 {
		t.Errorf("weight ratios off: %v", counts)
	}
}

func TestWeightedChoicePanicsWithoutPositiveWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, -1})
}

func TestHashLabelStable(t *testing.T) {
	// Pin literal values so accidental changes to the label hash or the
	// stream derivation (which would silently reshuffle every generated
	// world) are caught here before they show up as golden drift.
	if got, want := hashLabel("friends"), uint64(0x549eeefc27b08dcb); got != want {
		t.Fatalf("hashLabel(friends) = %#x, want %#x", got, want)
	}
	if hashLabel("a") == hashLabel("b") {
		t.Fatal("trivial label collision")
	}
	pins := []struct {
		name string
		r    *Rand
		want [3]uint64
	}{
		{`New(2013).StreamN("evolve/2/dissolve", 12345)`, New(2013).StreamN("evolve/2/dissolve", 12345),
			[3]uint64{0xf778d977908e3b3a, 0xaee14ef9ee62142d, 0x3feedf85c415648f}},
		{`New(1).Stream("x")`, New(1).Stream("x"),
			[3]uint64{0xa4fa4eb94586d87e, 0xaa948b581d41abee, 0x6e5976f134e3c377}},
	}
	for _, p := range pins {
		for i, want := range p.want {
			if got := p.r.Uint64(); got != want {
				t.Fatalf("%s draw %d = %#x, want %#x", p.name, i, got, want)
			}
		}
	}
}
