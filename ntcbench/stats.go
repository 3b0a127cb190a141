package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a reported percentile.
const tailMin = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, which must be sorted ascending: the smallest sample with at
// least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(p, len(sorted)), 1), len(sorted))-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples. The small slack keeps float rounding (99.9% of
// 10000 is 9990.000000000002) from moving it up a place.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailOK reports whether at least tailMin of n samples lie beyond the
// p-th percentile.
func tailOK(p float64, n int) bool { return n > 0 && n-rank(p, n) >= tailMin }

// tailPercentiles are the percentiles a tail may be reported at, in
// rising order.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least tailMin samples beyond it among n samples, and false when even
// the median leaves fewer.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if tailOK(p, n) {
			best, ok = p, true
		}
	}
	return best, ok
}

// quartiles returns the three cut points dividing xs into quarters by
// the "exclusive" method (Python's statistics.quantiles(xs, n=4)
// default). xs need not be sorted; it needs at least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// latencies collects durations and summarises them in milliseconds.
type latencies []time.Duration

// sortedMs returns the samples in milliseconds, ascending.
func (l latencies) sortedMs() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// sum returns the total duration.
func (l latencies) sum() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
