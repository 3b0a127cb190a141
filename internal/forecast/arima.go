// Package forecast implements the prediction layer EPACT requires
// (Section V-B): at the start of every time slot the policy needs the
// per-VM CPU and memory utilisation patterns for the slot ahead. The
// paper uses ARIMA (Box–Jenkins [24]) fed with the previous week and
// forecasting the next day per VM.
//
// The main model is ARIMA(p,d,q) with optional seasonal differencing
// at the daily period, estimated by the Hannan–Rissanen two-stage
// procedure: a long autoregression (Yule–Walker) recovers the
// innovation sequence, then the ARMA coefficients are obtained by
// least squares on lagged values and lagged innovations. Two simple
// reference predictors (seasonal-naive and last-value) support the
// forecast-quality ablation.
package forecast

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Predictor forecasts the next horizon samples of a series.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string

	// Forecast returns horizon forecasted values given the history.
	// Implementations must not modify history.
	Forecast(history []float64, horizon int) ([]float64, error)
}

// Config parameterises an ARIMA predictor.
type Config struct {
	// P, D, Q are the autoregressive order, differencing degree and
	// moving-average order.
	P, D, Q int

	// SeasonalPeriod, when positive, applies one round of seasonal
	// differencing at that period before the (p,d,q) model — the
	// standard way to exploit the traces' daily cycle (period 288).
	SeasonalPeriod int

	// LongAROrder is the order of the stage-1 autoregression in
	// Hannan–Rissanen; 0 picks max(20, 2*(P+Q)).
	LongAROrder int

	// ClampMin/ClampMax bound the forecasts (utilisations live in
	// [0, 100]).
	ClampMin, ClampMax float64
}

// DefaultConfig is the configuration used by the data-center runs:
// ARIMA(2,0,1) on daily-seasonally-differenced series, clamped to
// percent range.
func DefaultConfig() Config {
	return Config{P: 2, D: 0, Q: 1, SeasonalPeriod: 288, ClampMin: 0, ClampMax: 100}
}

// ARIMA is a Predictor backed by the model above.
type ARIMA struct {
	Cfg Config
}

// Name implements Predictor.
func (a *ARIMA) Name() string {
	if a.Cfg.SeasonalPeriod > 0 {
		return fmt.Sprintf("ARIMA(%d,%d,%d)s%d", a.Cfg.P, a.Cfg.D, a.Cfg.Q, a.Cfg.SeasonalPeriod)
	}
	return fmt.Sprintf("ARIMA(%d,%d,%d)", a.Cfg.P, a.Cfg.D, a.Cfg.Q)
}

// errTooShort reports a history shorter than the model needs.
var errTooShort = errors.New("forecast: history too short for model configuration")

// Forecast implements Predictor.
func (a *ARIMA) Forecast(history []float64, horizon int) ([]float64, error) {
	cfg := a.Cfg
	if horizon <= 0 {
		return nil, errors.New("forecast: horizon must be positive")
	}
	needed := cfg.SeasonalPeriod + cfg.D + cfg.P + cfg.Q + 16
	if len(history) < needed {
		return nil, fmt.Errorf("%w: have %d, need >= %d", errTooShort, len(history), needed)
	}

	// 1) Seasonal differencing. Every step below only reads history
	// (differencing allocates its output), so it is not copied.
	work := history
	if cfg.SeasonalPeriod > 0 {
		work = seasonalDiff(history, cfg.SeasonalPeriod)
	}

	// 2) Ordinary differencing, keeping each level's last value for
	// inversion.
	lasts := make([]float64, cfg.D)
	for i := range lasts {
		lasts[i] = work[len(work)-1]
		work = diff(work)
	}

	// 3) Fit ARMA(p, q) on the stationary series.
	model, err := fitARMA(work, cfg.P, cfg.Q, cfg.LongAROrder)
	if err != nil {
		return nil, err
	}

	// 4) Iterate the recursion over the horizon with zero future
	// innovations.
	pred := model.forecast(work, horizon)

	// 5) Invert ordinary differencing (integrate).
	for i := cfg.D - 1; i >= 0; i-- {
		level := lasts[i]
		for j := range pred {
			level += pred[j]
			pred[j] = level
		}
	}

	// 6) Invert seasonal differencing.
	if cfg.SeasonalPeriod > 0 {
		s := cfg.SeasonalPeriod
		n := len(history)
		for j := range pred {
			// x[t] = d[t] + x[t-s]; references forecasted values once
			// the horizon exceeds one season.
			idx := n + j - s
			var prevSeason float64
			if idx >= n {
				prevSeason = pred[idx-n]
			} else {
				prevSeason = history[idx]
			}
			pred[j] += prevSeason
		}
	}

	// 7) Clamp to the valid range.
	if cfg.ClampMax > cfg.ClampMin {
		for j := range pred {
			pred[j] = mathx.Clamp(pred[j], cfg.ClampMin, cfg.ClampMax)
		}
	}
	return pred, nil
}

// arma holds fitted ARMA coefficients (on a mean-removed series).
type arma struct {
	phi   []float64 // AR coefficients
	theta []float64 // MA coefficients
	mean  float64
	resid []float64 // in-sample innovations (aligned to series tail)
}

// fitARMA estimates ARMA(p,q) by Hannan–Rissanen. Stage 2 streams the
// regression rows into mathx.NormalEquations rather than building the
// design matrix; the sums are the ones mathx.LeastSquares forms, in the
// same order, so the coefficients are bit-identical to it.
func fitARMA(series []float64, p, q, longAR int) (*arma, error) {
	if p < 0 || q < 0 {
		return nil, errors.New("forecast: negative ARMA order")
	}
	mean := mathx.Mean(series)
	x := make([]float64, len(series))
	for i, v := range series {
		x[i] = v - mean
	}

	// Degenerate series (constant): forecast the mean.
	if mathx.Std(x) < 1e-9 {
		return &arma{phi: make([]float64, p), theta: make([]float64, q), mean: mean,
			resid: make([]float64, len(x))}, nil
	}

	// Pure AR: Yule-Walker directly.
	if q == 0 {
		if p == 0 {
			return &arma{mean: mean, resid: append([]float64(nil), x...)}, nil
		}
		phi, _, err := mathx.YuleWalker(x, p)
		if err != nil {
			return nil, err
		}
		m := &arma{phi: phi, theta: nil, mean: mean}
		m.resid = m.innovations(x)
		return m, nil
	}

	// Stage 1: long AR to estimate innovations.
	m1 := longAR
	if m1 <= 0 {
		m1 = 2 * (p + q)
		if m1 < 20 {
			m1 = 20
		}
	}
	if len(x) <= m1+p+q+1 {
		return nil, errTooShort
	}
	longPhi, _, err := mathx.YuleWalker(x, m1)
	if err != nil {
		return nil, err
	}
	eps := make([]float64, len(x))
	for t := m1; t < len(x); t++ {
		pred := 0.0
		for i := 0; i < m1; i++ {
			pred += longPhi[i] * x[t-1-i]
		}
		eps[t] = x[t] - pred
	}

	// Stage 2: regress x_t on lagged x and lagged innovations.
	start := m1 + maxInt(p, q)
	ne := mathx.NewNormalEquations(p + q)
	row := make([]float64, p+q)
	for t := start; t < len(x); t++ {
		for i := 0; i < p; i++ {
			row[i] = x[t-1-i]
		}
		for j := 0; j < q; j++ {
			row[p+j] = eps[t-1-j]
		}
		ne.Add(row, x[t])
	}
	beta, err := ne.Solve()
	if err != nil {
		return nil, err
	}
	m := &arma{phi: beta[:p], theta: beta[p:], mean: mean}
	m.resid = m.innovations(x)
	return m, nil
}

// innovations recomputes in-sample one-step residuals under the model.
func (m *arma) innovations(x []float64) []float64 {
	p, q := len(m.phi), len(m.theta)
	eps := make([]float64, len(x))
	for t := 0; t < len(x); t++ {
		pred := 0.0
		for i := 0; i < p && t-1-i >= 0; i++ {
			pred += m.phi[i] * x[t-1-i]
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += m.theta[j] * eps[t-1-j]
		}
		eps[t] = x[t] - pred
	}
	return eps
}

// forecast iterates the ARMA recursion over the horizon with zero
// future innovations.
func (m *arma) forecast(x []float64, horizon int) []float64 {
	p, q := len(m.phi), len(m.theta)
	// Extended views over (history + forecasts).
	xs := make([]float64, 0, len(x)+horizon)
	for _, v := range x {
		xs = append(xs, v-m.mean)
	}
	eps := make([]float64, len(m.resid), len(m.resid)+horizon)
	copy(eps, m.resid)
	out := make([]float64, 0, horizon)
	for h := 0; h < horizon; h++ {
		t := len(xs)
		pred := 0.0
		for i := 0; i < p && t-1-i >= 0; i++ {
			pred += m.phi[i] * xs[t-1-i]
		}
		for j := 0; j < q && t-1-j >= 0; j++ {
			pred += m.theta[j] * eps[t-1-j]
		}
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			pred = 0
		}
		xs = append(xs, pred)
		eps = append(eps, 0)
		out = append(out, pred+m.mean)
	}
	return out
}

// seasonalDiff returns x[t] - x[t-s] for t >= s.
func seasonalDiff(x []float64, s int) []float64 {
	if len(x) <= s {
		return nil
	}
	out := make([]float64, len(x)-s)
	for t := s; t < len(x); t++ {
		out[t-s] = x[t] - x[t-s]
	}
	return out
}

// diff returns the first difference of x.
func diff(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	for t := 1; t < len(x); t++ {
		out[t-1] = x[t] - x[t-1]
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
