package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q < 1) of xs by the "exclusive"
// method of Python's statistics.quantiles: linear interpolation at rank
// q*(n+1) between the two nearest samples, the bracketing pair clamped to
// the first two or last two (so it extrapolates past the ends, as Python
// does). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(math.Floor(pos)), 1), len(s)-1)
	frac := pos - float64(j)
	return s[j-1] + (s[j]-s[j-1])*frac
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// tailLevels are the percentiles a timing's tail is reported at, highest
// first, each with the share of samples beyond it in per mille (kept as
// integers so the ten-sample rule does not hinge on float rounding).
var tailLevels = []struct {
	pct    float64
	beyond int
}{{99.9, 1}, {99, 10}, {90, 100}, {50, 500}}

// tailPercentile returns the highest percentile in tailLevels that has at
// least ten samples beyond it, with its value. ok is false when even the
// median has fewer than ten samples above it (fewer than 20 samples).
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, l := range tailLevels {
		if len(xs)*l.beyond >= 10*1000 {
			return l.pct, quantile(xs, l.pct/100), true
		}
	}
	return 0, 0, false
}

// tally counts operations attempted and failed. Refused operations and
// oracle mismatches count as failed, and every failed operation was also
// attempted.
type tally struct {
	attempted, failed int
}

// add records n operations, of which bad failed.
func (t *tally) add(n, bad int) {
	t.attempted += n
	t.failed += bad
}

// ratio is failed ÷ attempted (0 when nothing was attempted).
func (t tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
