// Package mathx provides the numerical utilities shared by the power,
// forecasting and allocation packages: descriptive statistics, Pearson
// correlation, Euclidean distance, piecewise-linear interpolation,
// argmin helpers, a small dense linear solver, and the quartiles and
// rank test that compare two sets of benchmark runs.
//
// Everything here is deliberately dependency-free (stdlib math only) so
// the modelling packages stay self-contained.
package mathx

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired-sample statistics receive
// slices of different lengths.
var ErrLengthMismatch = errors.New("mathx: input slices have different lengths")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n), or 0
// for slices with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs. It panics on an empty slice: callers
// in this repository always operate on non-empty utilisation patterns.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Pearson returns the Pearson correlation coefficient between x and y.
//
// When either series is constant the correlation is undefined; the
// paper's algorithms treat such a pairing as "no affinity", so Pearson
// returns 0 in that case rather than NaN. It returns
// ErrLengthMismatch when the series lengths differ.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// L2Distance returns the Euclidean distance between x and y, as used
// by EPACT's 2-D merit function (Eq. 2 of the paper). It returns
// ErrLengthMismatch when the series lengths differ.
func L2Distance(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	ss := 0.0
	for i := range x {
		d := x[i] - y[i]
		ss += d * d
	}
	return math.Sqrt(ss), nil
}

// AddScaled returns x + s*y element-wise. It panics if lengths differ;
// it is an internal building block used with pre-validated patterns.
func AddScaled(x []float64, s float64, y []float64) []float64 {
	if len(x) != len(y) {
		panic("mathx: AddScaled length mismatch")
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + s*y[i]
	}
	return out
}

// Complement returns max(x) - x element-wise: the "complementary
// utilisation pattern" of Algorithms 1 and 2 in the paper.
func Complement(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	m := Max(x)
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = m - v
	}
	return out
}

// ArgminFunc returns the x in xs minimising f, together with f(x).
// It panics on an empty slice.
func ArgminFunc(xs []float64, f func(float64) float64) (x, fx float64) {
	x, fx = xs[0], f(xs[0])
	for _, c := range xs[1:] {
		if v := f(c); v < fx {
			x, fx = c, v
		}
	}
	return x, fx
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MAPE returns the mean absolute percentage error of forecast vs
// actual, skipping points where actual is ~0 (below eps) to avoid
// division blow-ups on idle VM samples.
func MAPE(actual, forecast []float64, eps float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, ErrLengthMismatch
	}
	sum, n := 0.0, 0
	for i := range actual {
		if math.Abs(actual[i]) < eps {
			continue
		}
		sum += math.Abs((actual[i] - forecast[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return 100 * sum / float64(n), nil
}

// RMSE returns the root-mean-square error of forecast vs actual.
func RMSE(actual, forecast []float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, nil
	}
	ss := 0.0
	for i := range actual {
		d := actual[i] - forecast[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(actual))), nil
}

// Quartiles returns the three cut points that divide xs into quarters,
// by the "exclusive" method (Python's statistics.quantiles(xs, n=4)
// default). xs need not be sorted. One value is all three quartiles;
// an empty slice gives NaNs.
func Quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	n, m := len(d), len(d)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// MannWhitneyU is the two-sided Mann–Whitney U (Wilcoxon rank-sum)
// test of whether x and y come from the same distribution. u is x's
// statistic: the number of (x, y) pairs with x > y, ties counting one
// half. The p-value uses the normal approximation with the tie
// correction and a continuity correction of one half, which is
// scipy.stats.mannwhitneyu's "asymptotic" method. Samples whose
// values are all equal give p = 1; an empty sample gives p = NaN.
func MannWhitneyU(x, y []float64) (u, p float64) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return 0, math.NaN()
	}
	type obs struct {
		v   float64
		inX bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, true})
	}
	for _, v := range y {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Tied values share the mean of the ranks they span.
	n := len(all)
	rankX, ties := 0.0, 0.0
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // mean of the 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].inX {
				rankX += mid
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u = rankX - float64(n1*(n1+1))/2

	mean := float64(n1*n2) / 2
	variance := float64(n1*n2) / 12 * (float64(n+1) - ties/float64(n*(n-1)))
	if variance <= 0 {
		return u, 1
	}
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(variance)
	if z <= 0 {
		return u, 1
	}
	return u, math.Erfc(z / math.Sqrt2)
}
