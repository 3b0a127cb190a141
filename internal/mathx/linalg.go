package mathx

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular or ill-conditioned matrix")

// SolveLinear solves the dense system A·x = b using Gaussian
// elimination with partial pivoting. A is given row-major as a slice
// of rows; it is not modified. The forecaster uses this for
// Yule-Walker and Hannan-Rissanen regressions, whose systems are tiny
// (order <= ~30), so an O(n^3) dense solve is the right tool.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, ErrLengthMismatch
	}
	// Work on a copy in augmented form.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, ErrLengthMismatch
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// Autocovariance returns the sample autocovariances of xs at lags
// 0..maxLag (biased estimator, divide by n), as needed by Yule-Walker.
func Autocovariance(xs []float64, maxLag int) []float64 {
	n := len(xs)
	out := make([]float64, maxLag+1)
	if n == 0 {
		return out
	}
	m := Mean(xs)
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		s := 0.0
		for i := 0; i+lag < n; i++ {
			s += (xs[i] - m) * (xs[i+lag] - m)
		}
		out[lag] = s / float64(n)
	}
	return out
}

// YuleWalker fits an AR(p) model to xs and returns the AR coefficients
// phi[0..p-1] (so that x_t ~ sum_i phi[i]*x_{t-1-i} + e_t, in deviations
// from the mean) and the innovation variance estimate.
func YuleWalker(xs []float64, p int) (phi []float64, sigma2 float64, err error) {
	if p <= 0 {
		return nil, 0, errors.New("mathx: YuleWalker order must be positive")
	}
	if len(xs) <= p {
		return nil, 0, errors.New("mathx: YuleWalker needs more samples than the AR order")
	}
	gamma := Autocovariance(xs, p)
	// A (numerically) constant series has no autocovariance structure:
	// AR coefficients are all zero and the innovations have zero
	// variance. Compare against the scale of the data to absorb float
	// round-off from the mean subtraction.
	scale := 1.0 + math.Abs(Mean(xs))
	if gamma[0] <= 1e-12*scale*scale {
		return make([]float64, p), 0, nil
	}
	// Toeplitz system R·phi = r with R[i][j] = gamma[|i-j|].
	r := make([][]float64, p)
	rhs := make([]float64, p)
	for i := 0; i < p; i++ {
		r[i] = make([]float64, p)
		for j := 0; j < p; j++ {
			r[i][j] = gamma[abs(i-j)]
		}
		rhs[i] = gamma[i+1]
	}
	phi, err = SolveLinear(r, rhs)
	if err != nil {
		return nil, 0, err
	}
	sigma2 = gamma[0]
	for i := 0; i < p; i++ {
		sigma2 -= phi[i] * gamma[i+1]
	}
	if sigma2 < 0 {
		sigma2 = 0
	}
	return phi, sigma2, nil
}

// LeastSquares solves the overdetermined system X·beta ~= y in the
// least-squares sense via the normal equations (XᵀX)·beta = Xᵀy.
// X is row-major with one observation per row. The regressions in this
// repository are small and well-scaled, so normal equations suffice.
// It is a loop over NormalEquations, the streaming form callers use
// when they would otherwise build X only to hand it here.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	nObs := len(x)
	if nObs == 0 || len(y) != nObs {
		return nil, ErrLengthMismatch
	}
	nVar := len(x[0])
	ne := NewNormalEquations(nVar)
	for r := 0; r < nObs; r++ {
		if len(x[r]) != nVar {
			return nil, ErrLengthMismatch
		}
		ne.Add(x[r], y[r])
	}
	return ne.Solve()
}

// NormalEquations accumulates the normal equations (XᵀX)·beta = Xᵀy of
// a least-squares fit one observation at a time, so a regression can
// stream its design rows instead of materialising X. Each entry of XᵀX
// and Xᵀy is a sum over observations in arrival order, so feeding the
// rows of X in order gives bit-for-bit the system LeastSquares solves.
type NormalEquations struct {
	xtx [][]float64 // upper triangle until Solve mirrors it
	xty []float64
}

// NewNormalEquations returns an empty accumulator for nVar regressors.
func NewNormalEquations(nVar int) *NormalEquations {
	back := make([]float64, nVar*nVar)
	xtx := make([][]float64, nVar)
	for i := range xtx {
		xtx[i] = back[i*nVar : (i+1)*nVar]
	}
	return &NormalEquations{xtx: xtx, xty: make([]float64, nVar)}
}

// Add accumulates one observation: the regressors row (one entry per
// variable) and the response y.
func (ne *NormalEquations) Add(row []float64, y float64) {
	xtx, xty := ne.xtx, ne.xty
	for i := range xty {
		xty[i] += row[i] * y
		for j := i; j < len(xty); j++ {
			xtx[i][j] += row[i] * row[j]
		}
	}
}

// Solve returns beta for the observations added so far. It finalises
// the accumulator in place, so call it once.
func (ne *NormalEquations) Solve() ([]float64, error) {
	xtx := ne.xtx
	for i := range xtx {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		// Tiny ridge term keeps near-collinear regressors (flat VM
		// traces) solvable without visibly biasing the fit.
		xtx[i][i] += 1e-9
	}
	return SolveLinear(xtx, ne.xty)
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}
