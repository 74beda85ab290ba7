package bench

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: Summarize must sort
	}
	return s
}

// The percentile rule: a median always, and the highest ladder percentile
// with at least ten samples beyond it — none at 5 or 20 samples, p90 at
// 100.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tailPct float64
		tail    float64
		median  float64
	}{
		{n: 5, median: 3},
		{n: 20, median: 10.5},
		{n: 100, tailPct: 90, tail: 90.1, median: 50.5},
		{n: 1000, tailPct: 99, tail: 990.01, median: 500.5},
	} {
		s := Summarize(seq(tc.n))
		if s.N != tc.n || s.Min != 1 || s.Max != float64(tc.n) {
			t.Errorf("n=%d: got n %d, min %g, max %g", tc.n, s.N, s.Min, s.Max)
		}
		if math.Abs(s.Median-tc.median) > 1e-9 {
			t.Errorf("n=%d: median %g, want %g", tc.n, s.Median, tc.median)
		}
		if s.TailPct != tc.tailPct || math.Abs(s.Tail-tc.tail) > 1e-9 {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", tc.n, s.TailPct, s.Tail, tc.tailPct, tc.tail)
		}
		if tc.tailPct > 0 {
			beyond := 0
			for _, v := range seq(tc.n) {
				if v > s.Tail {
					beyond++
				}
			}
			if beyond < tailMin {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, s.TailPct)
			}
		}
	}
}

func TestSummarizeQuartilesAndSpread(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 {
		t.Fatalf("quartiles %g/%g/%g, want 2/3/4", s.Q1, s.Median, s.Q3)
	}
	if got := s.Spread(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("spread %g, want 2/3", got)
	}
	if (Summary{}).Spread() != 0 || Summarize(nil).N != 0 {
		t.Fatal("empty summary must be zero")
	}
}
