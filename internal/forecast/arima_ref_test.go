package forecast

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// This file keeps verbatim copies of Forecast and fitARMA as they were
// before stage 2 streamed its normal equations: Forecast copied the
// history and kept whole differencing tails, and fitARMA materialised
// the design matrix for mathx.LeastSquares. The tests require the
// production path to give bit-identical forecasts and the same
// order-selection ranking.

func refForecast(cfg Config, history []float64, horizon int) ([]float64, error) {
	work := append([]float64(nil), history...)
	var seasonalBase []float64
	if cfg.SeasonalPeriod > 0 {
		seasonalBase = work
		work = seasonalDiff(work, cfg.SeasonalPeriod)
	}
	tails := make([][]float64, 0, cfg.D)
	for i := 0; i < cfg.D; i++ {
		tails = append(tails, append([]float64(nil), work...))
		work = diff(work)
	}
	model, err := refFitARMA(work, cfg.P, cfg.Q, cfg.LongAROrder)
	if err != nil {
		return nil, err
	}
	pred := model.forecast(work, horizon)
	for i := cfg.D - 1; i >= 0; i-- {
		base := tails[i]
		level := base[len(base)-1]
		for j := range pred {
			level += pred[j]
			pred[j] = level
		}
	}
	if cfg.SeasonalPeriod > 0 {
		s := cfg.SeasonalPeriod
		n := len(seasonalBase)
		for j := range pred {
			idx := n + j - s
			var prevSeason float64
			if idx >= n {
				prevSeason = pred[idx-n]
			} else {
				prevSeason = seasonalBase[idx]
			}
			pred[j] += prevSeason
		}
	}
	if cfg.ClampMax > cfg.ClampMin {
		for j := range pred {
			pred[j] = mathx.Clamp(pred[j], cfg.ClampMin, cfg.ClampMax)
		}
	}
	return pred, nil
}

func refFitARMA(series []float64, p, q, longAR int) (*arma, error) {
	if p < 0 || q < 0 {
		return nil, fmt.Errorf("negative order")
	}
	mean := mathx.Mean(series)
	x := make([]float64, len(series))
	for i, v := range series {
		x[i] = v - mean
	}
	if mathx.Std(x) < 1e-9 {
		return &arma{phi: make([]float64, p), theta: make([]float64, q), mean: mean,
			resid: make([]float64, len(x))}, nil
	}
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
	start := m1 + maxInt(p, q)
	var rows [][]float64
	var ys []float64
	for t := start; t < len(x); t++ {
		row := make([]float64, p+q)
		for i := 0; i < p; i++ {
			row[i] = x[t-1-i]
		}
		for j := 0; j < q; j++ {
			row[p+j] = eps[t-1-j]
		}
		rows = append(rows, row)
		ys = append(ys, x[t])
	}
	beta, err := mathx.LeastSquares(rows, ys)
	if err != nil {
		return nil, err
	}
	m := &arma{phi: beta[:p], theta: beta[p:], mean: mean}
	m.resid = m.innovations(x)
	return m, nil
}

func refSelectOrder(series []float64, maxP, maxQ, seasonalPeriod int) []OrderCandidate {
	work := series
	if seasonalPeriod > 0 {
		work = seasonalDiff(series, seasonalPeriod)
	}
	var out []OrderCandidate
	for p := 0; p <= maxP; p++ {
		for q := 0; q <= maxQ; q++ {
			if p+q == 0 {
				continue
			}
			m, err := refFitARMA(work, p, q, 0)
			if err != nil {
				continue
			}
			aic, ok := aicOf(m, len(work), p+q)
			if !ok {
				continue
			}
			out = append(out, OrderCandidate{P: p, Q: q, AIC: aic})
		}
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].AIC < out[i].AIC {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// refSeries returns named 7-day histories: generated VM CPU and memory
// traces, a constant series and a clean diurnal one.
func refSeries(t *testing.T) map[string][]float64 {
	t.Helper()
	cfg := trace.DefaultConfig(2018)
	cfg.VMs = 6
	cfg.Days = 7
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]float64{}
	for v, vm := range tr.VMs {
		out[fmt.Sprintf("vm%d-cpu", v)] = vm.CPU
		out[fmt.Sprintf("vm%d-mem", v)] = vm.Mem
	}
	flat := make([]float64, 7*288)
	for i := range flat {
		flat[i] = 37.5
	}
	out["constant"] = flat
	out["diurnal"] = syntheticDiurnal(7*288, 3)
	return out
}

func TestForecastMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"default":   DefaultConfig(),
		"pure-ar":   {P: 3, SeasonalPeriod: 288, ClampMax: 100},
		"pure-ma":   {Q: 2, SeasonalPeriod: 288, ClampMax: 100},
		"d1":        {P: 1, D: 1, Q: 1, SeasonalPeriod: 288, ClampMax: 100},
		"no-season": {P: 2, Q: 1, ClampMax: 100},
	}
	for sname, series := range refSeries(t) {
		for cname, cfg := range configs {
			before := append([]float64(nil), series...)
			got, err := (&ARIMA{Cfg: cfg}).Forecast(series, 288)
			if err != nil {
				t.Fatalf("%s/%s: %v", sname, cname, err)
			}
			want, err := refForecast(cfg, series, 288)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", sname, cname, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s: sample %d = %v, reference %v", sname, cname, i, got[i], want[i])
				}
			}
			for i := range before {
				if math.Float64bits(series[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s/%s: Forecast modified history at %d", sname, cname, i)
				}
			}
		}
	}
}

func TestSelectOrderMatchesReference(t *testing.T) {
	for name, series := range refSeries(t) {
		got, err := SelectOrder(series, 3, 2, 288)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refSelectOrder(series, 3, 2, 288)
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].P != want[i].P || got[i].Q != want[i].Q ||
				math.Float64bits(got[i].AIC) != math.Float64bits(want[i].AIC) {
				t.Fatalf("%s: rank %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
		auto, err := AutoARIMA(series, 288)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if auto.Cfg.P != want[0].P || auto.Cfg.Q != want[0].Q {
			t.Fatalf("%s: AutoARIMA picked (%d,%d), reference (%d,%d)",
				name, auto.Cfg.P, auto.Cfg.Q, want[0].P, want[0].Q)
		}
	}
}
