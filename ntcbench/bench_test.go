package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/forecast"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}

	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// TestQuartiles pins the exclusive method of Python's
// statistics.quantiles(xs, n=4), which the acceptance spread uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // extrapolates, as Python does
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopTimesFromDue stalls one response on a single connection:
// the jobs queued behind it must show the stall in their latency and
// in how late they started.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const gap = 10 * time.Millisecond
	var jobs []job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, job{seq: i, kind: "x", due: time.Duration(i) * gap})
	}
	do := func(conn int, j job, due time.Time) []sample {
		if j.seq == 2 {
			time.Sleep(8 * gap)
		}
		return []sample{{op: j.kind, id: string(rune('0' + j.seq)), latency: time.Since(due), ok: true}}
	}
	samples, late := openLoop(jobs, 1, do)
	if len(samples) != len(jobs) {
		t.Fatalf("%d samples for %d jobs", len(samples), len(jobs))
	}
	lat := make(map[string]time.Duration)
	for _, s := range samples {
		lat[s.id] = s.latency
	}
	// Job 3 was due at 30 ms but could start only once job 2 ended,
	// at about 20 + 80 ms.
	if lat["3"] < 5*gap || late[3] < 5*gap {
		t.Errorf("job behind the stall: latency %v, late %v; want both over %v", lat["3"], late[3], 5*gap)
	}
	if lat["2"] < 8*gap {
		t.Errorf("stalled job latency %v, want at least its stall %v", lat["2"], 8*gap)
	}
	if p99 := tailOf(late, 99); p99 < 5*float64(gap/time.Millisecond) {
		t.Errorf("late p99 %v ms does not show the stall", p99)
	}
}

func TestSelfTimeNested(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: noParent, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps a
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "late", Parent: 0, Start: 90 * ms, End: 120 * ms}, // outlives root
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	ls := layerTimes(spans)
	if ls["a"].total != 30*ms || ls["a"].self != 25*ms || len(ls["a"].durs) != 1 {
		t.Errorf("layer a = %+v", *ls["a"])
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	h := r.begin("x", "", noParent)
	r.end(h)
	if h != noParent {
		t.Errorf("nil recorder handle %d, want %d", h, noParent)
	}
}

func TestTimedPolicyPassesThrough(t *testing.T) {
	vms := []alloc.VMDemand{
		{ID: 0, CPU: []float64{0.3, 0.4}, Mem: []float64{2, 2}},
		{ID: 1, CPU: []float64{0.5, 0.1}, Mem: []float64{3, 3}},
		{ID: 2, CPU: []float64{0.7, 0.6}, Mem: []float64{1, 1}},
	}
	m := power.NTCServer()
	spec := alloc.ServerSpec{Cores: m.NumCores(), MemContainers: m.MemGB(), FMax: m.FreqMax(), FMin: m.FreqMin()}
	want, err := (&alloc.FFD{}).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	parent := rec.begin("step", "s", noParent)
	p := &timedPolicy{Policy: &alloc.FFD{}, rec: rec, id: "s", parent: &parent}
	got, err := p.Allocate(vms, spec)
	rec.end(parent)
	if err != nil || !reflect.DeepEqual(got, want) || p.Name() != (&alloc.FFD{}).Name() {
		t.Errorf("wrapped Allocate = %+v, %v; want %+v", got, err, want)
	}
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Name != "alloc:"+p.Name() || spans[1].Parent != parent {
		t.Errorf("spans = %+v", spans)
	}
}

func TestTimedPredictorPassesThrough(t *testing.T) {
	hist := make([]float64, 3*288)
	for i := range hist {
		hist[i] = float64(i%288) / 3
	}
	inner := &forecast.SeasonalNaive{Period: 288}
	want, err := inner.Forecast(hist, 288)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	p := &timedPredictor{Predictor: inner, rec: rec, parent: noParent}
	got, err := p.Forecast(hist, 288)
	if err != nil || !reflect.DeepEqual(got, want) || p.Name() != inner.Name() {
		t.Errorf("wrapped Forecast differs: err %v", err)
	}
	if spans := rec.snapshot(); len(spans) != 1 || spans[0].Name != "forecast" {
		t.Errorf("spans = %+v", spans)
	}
}

// tinyGrid is a fast grid that still reaches every seam: a rebalanced
// triad next to a single DC, with cache-keyed rows.
func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Policies:    []string{"EPACT", "COAT"},
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 2,
		EvalDays:    1,
		Seeds:       []int64{3},
		Predictors:  []string{"oracle"},
		Topologies:  []string{"single", "carbon-greedy@triad-carbon"},
		Rebalances:  []string{"epoch:6@carbon-greedy"},
	}.WithDefaults()
}

func TestTimedBackendPassesThrough(t *testing.T) {
	g := tinyGrid()
	want, _, err := dist.RunLocal(context.Background(), g, 1, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.NewCoordinator(g, dist.Options{CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tb := newTimedBackend(c, rec)
	if _, err := dist.Work(context.Background(), tb, dist.WorkerOptions{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Errorf("rows through the timing backend differ from RunLocal's")
	}
	ls := layerTimes(rec.snapshot())
	if ls["dist.lease"] == nil || ls["dist.complete"] == nil {
		t.Fatalf("missing lease or complete spans: %v", ls)
	}
	if _, err := os.Stat("/proc/self/io"); err == nil && (tb.wchar.Load() <= 0 || !tb.wcharOK.Load()) {
		t.Errorf("no journal bytes counted inside Complete: %d", tb.wchar.Load())
	}
}

func TestTimedHandlerPassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Inner", "yes")
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte("body:" + r.URL.Path))
	})
	th := &timedHandler{next: inner}
	for _, rec := range []*recorder{nil, newRecorder()} {
		if rec != nil {
			th.rec.Store(rec)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/x", strings.NewReader("{}"))
		req.Header.Set(requestIDHeader, "42")
		w := httptest.NewRecorder()
		th.ServeHTTP(w, req)
		if w.Code != http.StatusCreated || w.Header().Get("X-Inner") != "yes" || w.Body.String() != "body:/v1/x" {
			t.Errorf("wrapped response %d %v %q", w.Code, w.Header(), w.Body.String())
		}
		if rec != nil {
			if spans := rec.snapshot(); len(spans) != 1 || spans[0].ID != "42" || spans[0].Name != "http" {
				t.Errorf("spans = %+v", spans)
			}
		}
	}
}

// TestStepperPassMatchesEngine pins the traced scenario pass to the
// engine: the same rows, bit for bit, with every seam reached.
func TestStepperPassMatchesEngine(t *testing.T) {
	g := tinyGrid()
	res, err := sweep.Run(g, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	sp, err := stepperPass(g, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rowsDigest(sp.rows) != rowsDigest(res.Runs) {
		t.Fatalf("stepper pass rows differ from sweep.Run's")
	}
	rep := newReport()
	if err := inputProbe(rep, rec, sp); err != nil || rep.failed != 0 {
		t.Fatalf("input probe: %v, %v", err, rep.problems)
	}
	lm := sweepLayers(rec, sp)
	for _, k := range []string{"alloc.calls", "replay.slots", "dispatch.calls", "rebalance.epochs", "synth.ms"} {
		if lm[k] <= 0 {
			t.Errorf("%s = %v, want work recorded", k, lm[k])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the
// same workloads and metrics, the pinned digests and the offered rate.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	why := make(map[string]string)
	for i, w := range b.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name {
			t.Errorf("workload %d is %q", i, w.Name)
		}
		why[w.Name] = w.Why
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), code has %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if !strings.Contains(why["paper-week"], paperWeekDigest) || !strings.Contains(why["fleet-grid"], fleetGridDigest) {
		t.Errorf("BENCHMARK.json does not quote the pinned row digests")
	}
	if !strings.Contains(why["serve-mixed"], "300 req/s") || offeredRPS != 300 {
		t.Errorf("BENCHMARK.json does not quote the offered rate %d req/s", offeredRPS)
	}
}

// TestServeMix drives the daemon mix on a small scenario until every
// replaying session and the ingestion session have been churned, under
// the race detector in CI: every request and output check must pass.
func TestServeMix(t *testing.T) {
	g := serveGrid(5)
	g.VMs = []int{20}
	g.HistoryDays, g.EvalDays = 2, 1
	observe, err := observeBodies(g)
	if err != nil {
		t.Fatal(err)
	}
	d, rows, err := setupDaemon(t.TempDir(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	rep := newReport()
	m, err := newMix(d, rep, rows, observe)
	if err != nil {
		t.Fatal(err)
	}
	d.mw.rec.Store(newRecorder())
	// 24 slots: 20 cycles step each replaying session 26 times and the
	// ingestion session 160 times.
	samples, _ := closedLoop(20*len(mixCycle), mixKind, workers, m.run)
	m.fold()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	for _, sess := range m.sessions {
		if sess.gen == 0 {
			t.Errorf("session %s was never churned", sess.id)
		}
	}
	if m.ingestGen == 0 {
		t.Error("the ingestion session was never churned")
	}
	lm := make(map[string]float64)
	latencyTails(rep, lm, samples, d.mw.rec.Load().snapshot())
	if lm["serve.step.handler_p50_ms"] <= 0 || lm["serve.fork.handler_p50_ms"] <= 0 {
		t.Errorf("handler times not joined to requests: %v", lm)
	}
}
