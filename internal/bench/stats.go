package bench

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing's tail is reported at; the
// rule picks the highest one that still has tailMin samples beyond it.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailMin is how many samples must lie beyond a reported tail percentile.
// Fewer than that and the "tail" is one or two unlucky samples, so only the
// median is reported.
const tailMin = 10

// Summary describes one metric's samples within a run: the count, the
// quartiles and extremes, and — for timings — the tail percentile the
// percentile rule allows at this sample count.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// TailPct is the highest percentile of tailLadder with at least tailMin
	// samples beyond it, and Tail its value; both are zero when the run has
	// too few samples for any tail.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// Summarize computes a Summary. It sorts a copy; the caller's slice is left
// alone.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     percentile(s, 25),
		Median: percentile(s, 50),
		Q3:     percentile(s, 75),
		Max:    s[len(s)-1],
	}
	if p, ok := TailPercentile(len(s)); ok {
		sum.TailPct = p
		sum.Tail = percentile(s, p)
	}
	return sum
}

// TailPercentile applies the percentile rule: the highest ladder percentile
// p with at least tailMin of n samples beyond it, i.e. n·(1−p/100) ≥ tailMin.
func TailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// The small epsilon keeps e.g. p90 at n=100 (exactly 10 beyond)
		// from falling to float rounding.
		if float64(n)*(1-p/100) >= tailMin-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile interpolates linearly between the closest ranks of sorted
// (the "inclusive" definition: p0 is the minimum, p100 the maximum).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Spread is the interquartile range as a share of the median — the
// run-to-run noise measure compare holds against each metric's bound.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median of a sample slice (0 for none).
func median(samples []float64) float64 {
	return Summarize(samples).Median
}
