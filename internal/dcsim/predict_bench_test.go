package dcsim

import (
	"testing"

	"repro/internal/forecast"
	"repro/internal/trace"
)

// BenchmarkPredictARIMA pins the prediction layer end to end: 50 VMs,
// 7 history days, one evaluated day (100 ARIMA forecasts).
func BenchmarkPredictARIMA(b *testing.B) {
	cfg := trace.DefaultConfig(2018)
	cfg.VMs = 50
	cfg.Days = 8
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pred := &forecast.ARIMA{Cfg: forecast.DefaultConfig()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(tr, pred, 7, 1); err != nil {
			b.Fatal(err)
		}
	}
}
