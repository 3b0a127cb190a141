package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/forecast"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/sweep/dist"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Row-CSV SHA-256 digests at defaultSeed. They are also quoted in
// BENCHMARK.json's workload descriptions.
const (
	paperWeekDigest = "4de09e5339eb73823377dd0f8564abc65e6d55471b8468a3963380637763eda3"
	fleetGridDigest = "a53485a92c84baa476ccfdb1f0e77375f253006d0bacb46b7d59145cc884f398"
)

// fleetSeeds is the length of fleet-grid's seed axis.
const fleetSeeds = 8

// How many set-ups a sweep execution times: about a millisecond of
// CPU for paper-week, 30 ms for fleet-grid.
const (
	paperWeekSetups = 16
	fleetGridSetups = 6
)

// paperWeekGrid is the paper's Figs 4-7 study: EPACT, COAT and
// COAT-OPT over five static powers on a 600-VM, 600-server week with
// a week of history and ARIMA predictions, in one datacenter.
func paperWeekGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Policies:     []string{"EPACT", "COAT", "COAT-OPT"},
		VMs:          []int{600},
		MaxServers:   []int{600},
		HistoryDays:  7,
		EvalDays:     7,
		Seeds:        []int64{seed},
		StaticPowerW: []float64{5, 15, 25, 35, 45},
		Predictors:   []string{"arima"},
		Topologies:   []string{"single"},
	}.WithDefaults()
}

// fleetGrid is a broad cold grid: every policy, both transition
// models, both power models, and a single DC against a carbon-greedy
// triad rebalanced every 6 slots, over fleetSeeds traces of 150 VMs
// and one evaluated day with oracle predictions.
func fleetGrid(seed int64) sweep.Grid {
	seeds := make([]int64, fleetSeeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return sweep.Grid{
		Policies:    sweep.PolicyNames(),
		VMs:         []int{150},
		HistoryDays: 7,
		EvalDays:    1,
		Seeds:       seeds,
		Predictors:  []string{"oracle"},
		Transitions: []sweep.TransitionSpec{{Name: "none"}, {Name: "default"}},
		PowerModels: []string{"ntc", "tdp"},
		Topologies:  []string{"single", "carbon-greedy@triad-carbon"},
		Rebalances:  []string{"epoch:6@carbon-greedy"},
	}.WithDefaults()
}

// rowsDigest is the SHA-256 of the rows' CSV rendering.
func rowsDigest(rows []sweep.RunResult) string {
	sum := sha256.Sum256([]byte((&sweep.Results{Runs: rows}).CSV()))
	return hex.EncodeToString(sum[:])
}

// sweepChecker holds the output checks shared by both sweeps.
type sweepChecker struct {
	seed   int64
	pinned string
	digest string // first digest seen in this run
}

func (c *sweepChecker) check(rep *report, rows []sweep.RunResult, pass string) {
	for i := range rows {
		rep.op(rows[i].Err == "", "%s: row %s failed: %s", pass, rows[i].Scenario.ID(), rows[i].Err)
	}
	d := rowsDigest(rows)
	if c.digest == "" {
		c.digest = d
		if c.seed == defaultSeed {
			rep.op(d == c.pinned, "%s: rows digest %s, pinned %s", pass, d, c.pinned)
		}
	} else {
		rep.op(d == c.digest, "%s: rows digest %s differs from the run's first %s", pass, d, c.digest)
	}
	checkEPACTvsCOAT(rep, rows, pass)
}

// checkEPACTvsCOAT checks the paper's headline on every scenario pair
// that differs only in policy and is priced by the NTC model: EPACT
// keeps more servers on but spends less energy than COAT.
func checkEPACTvsCOAT(rep *report, rows []sweep.RunResult, pass string) {
	coat := make(map[sweep.Scenario]*sweep.RunResult)
	for i := range rows {
		if s := rows[i].Scenario; s.Policy == "COAT" {
			s.Policy = ""
			coat[s] = &rows[i]
		}
	}
	pairs := 0
	for i := range rows {
		e := &rows[i]
		s := e.Scenario
		if s.Policy != "EPACT" || (s.PowerModel != "" && s.PowerModel != "ntc") {
			continue
		}
		s.Policy = ""
		c, ok := coat[s]
		if !ok {
			continue
		}
		pairs++
		rep.op(e.MeanActive > c.MeanActive && e.TotalEnergyMJ < c.TotalEnergyMJ,
			"%s: EPACT vs COAT at %s: servers %.3f vs %.3f, energy %.3f vs %.3f MJ",
			pass, s.ID(), e.MeanActive, c.MeanActive, e.TotalEnergyMJ, c.TotalEnergyMJ)
	}
	rep.op(pairs > 0, "%s: no EPACT/COAT pair to compare", pass)
}

// sweepIter is one untraced execution of a sweep workload: its rows,
// the loader's sharing counters, the CPU time of each of its set-ups,
// and its work's measurements.
type sweepIter struct {
	rows     []sweep.RunResult
	load     sweep.LoadStats
	setupCPU []time.Duration
	work     measured
}

// measured is what phase takes of one timed call.
type measured struct {
	cpu, wall time.Duration    // process CPU time and wall time
	m0, m1    runtime.MemStats // the Go runtime's statistics before and after
}

// phase times fn from a clean heap: it collects garbage first, so that
// no call pays for the one before it.
func phase(fn func() error) (measured, error) {
	var m measured
	runtime.GC()
	runtime.ReadMemStats(&m.m0)
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	m.cpu, m.wall = cpuTime()-c0, time.Since(t0)
	runtime.ReadMemStats(&m.m1)
	return m, err
}

// threadCPU returns the CPU time of the one OS thread that ran fn. It
// times work that runs on the calling goroutine alone, so that
// background work on other threads (the collector, the scavenger) does
// not blur a set-up of a few microseconds.
func threadCPU(fn func() error) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	err := fn()
	return threadCPUTime() - c0, err
}

// setups runs a sweep's set-up n times after one garbage collection,
// timing each with threadCPU. A set-up of a few milliseconds of file
// system calls varies by a factor of two from one call to the next, so
// a run takes the median of many.
func setups(n int, fn func(rep int) error) ([]time.Duration, error) {
	runtime.GC()
	out := make([]time.Duration, n)
	for r := range out {
		var err error
		if out[r], err = threadCPU(func() error { return fn(r) }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// iterations is how many executions fill a run of cfg.seconds when
// one takes about per (per seconds traced when the run is traced, the
// traced passes included). The count depends on nothing measured, so
// every run of a workload does the same work; the program keeps what
// it retains between executions, and peak memory grows with the count.
func iterations(cfg runConfig, per, perTraced time.Duration) int {
	if cfg.trace {
		per = perTraced
	}
	return max(1, int((cfg.seconds+per/2)/per))
}

// runSweep drives a sweep workload: n untraced executions, each
// followed in a traced run by the traced passes. Every execution gets
// a fresh directory under cfg.dir.
func runSweep(cfg runConfig, rep *report, name string, n int, exec func(dir string) (sweepIter, error),
	traced func(dir string, it sweepIter) (map[string]float64, *recorder, error)) error {
	var setupCPU, cpus, walls []float64
	var layers []map[string]float64
	var last *recorder
	for i := 0; i < n; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("sweep-%d", i))
		it, err := exec(dir)
		if err != nil {
			return err
		}
		for _, d := range it.setupCPU {
			setupCPU = append(setupCPU, d.Seconds())
		}
		cpus = append(cpus, it.work.cpu.Seconds())
		walls = append(walls, it.work.wall.Seconds())
		fmt.Fprintf(cfg.log, "%s: sweep %d: %.3f s wall, %.3f s CPU\n", name, i, it.work.wall.Seconds(), it.work.cpu.Seconds())
		if cfg.trace {
			lm, rec, err := traced(dir, it)
			if err != nil {
				return err
			}
			addRuntime(lm, &it.work.m0, &it.work.m1)
			lm["load.trace_reuse_ratio"] = reuse(it.load.TraceRequests, it.load.TraceBuilds)
			lm["load.predict_reuse_ratio"] = reuse(it.load.PredictRequests, it.load.PredictBuilds)
			lm["work_wall_s"] = it.work.wall.Seconds()
			layers = append(layers, lm)
			last = rec
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	rep.info["setup_cpu_s"] = setupCPU
	rep.info["work_cpu_s"] = cpus
	rep.info["work_wall_s"] = walls
	if len(cpus) > 1 {
		rep.info["work_cpu_quartiles_s"] = quartiles(cpus)
	}
	if cfg.trace {
		return finishTraced(cfg, rep, name, layers, last, median(walls)*1000)
	}
	rep.set("setup_s", "s", median(setupCPU))
	rep.set("work_cpu_s", "s", median(cpus))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}

// reuse is the share of input requests the loader answered without a
// build.
func reuse(requests, builds int64) float64 {
	if requests == 0 {
		return 0
	}
	return 1 - float64(builds)/float64(requests)
}

// runPaperWeek runs the paper's study through the sweep.Run pool.
func runPaperWeek(cfg runConfig, rep *report) error {
	g := paperWeekGrid(cfg.seed)
	chk := &sweepChecker{seed: cfg.seed, pinned: paperWeekDigest}
	exec := func(string) (sweepIter, error) {
		var it sweepIter
		var err error
		// Set-up is what sweep.Run does before its pool starts:
		// default, validate and expand the grid.
		it.setupCPU, err = setups(paperWeekSetups, func(int) error {
			if _, err := sweep.NewRunner(g); err != nil {
				return err
			}
			_, err := sweep.Expand(g)
			return err
		})
		if err != nil {
			return it, err
		}
		var res *sweep.Results
		it.work, err = phase(func() (err error) {
			res, err = sweep.Run(g, sweep.Options{Workers: workers})
			return err
		})
		if err != nil {
			return it, err
		}
		it.rows, it.load = res.Runs, res.Load
		chk.check(rep, it.rows, "sweep")
		return it, nil
	}
	traced := func(_ string, it sweepIter) (map[string]float64, *recorder, error) {
		return tracePaperWeek(rep, g, chk, it.work.wall)
	}
	return runSweep(cfg, rep, "paper-week", iterations(cfg, 5*time.Second, 13*time.Second), exec, traced)
}

// tracePaperWeek runs the traced passes of one paper-week iteration:
// the scenario pass through the stepper seams, then the input probe.
func tracePaperWeek(rep *report, g sweep.Grid, chk *sweepChecker, untraced time.Duration) (map[string]float64, *recorder, error) {
	rec := newRecorder()
	sp, err := stepperPass(g, rec)
	if err != nil {
		return nil, nil, err
	}
	chk.check(rep, sp.rows, "stepper pass")
	if err := inputProbe(rep, rec, sp); err != nil {
		return nil, nil, err
	}
	lm := sweepLayers(rec, sp)
	lm["tracing.overhead_frac"] = sp.wall.Seconds()/untraced.Seconds() - 1
	return lm, rec, nil
}

// runFleetGrid runs the broad cold grid through the distributed
// coordinator with in-process workers (dist.RunLocal, split into its
// construction and its run), a checkpoint journal and a read-write
// result store, each fresh per sweep.
func runFleetGrid(cfg runConfig, rep *report) error {
	g := fleetGrid(cfg.seed)
	chk := &sweepChecker{seed: cfg.seed, pinned: fleetGridDigest}
	var store *cache.Store
	exec := func(dir string) (sweepIter, error) {
		var it sweepIter
		var ckpt string
		var c *dist.Coordinator
		var err error
		// Every set-up gets its own store and journal; the last one
		// runs the grid.
		it.setupCPU, err = setups(fleetGridSetups, func(r int) (err error) {
			ckpt = filepath.Join(dir, fmt.Sprintf("journal-%d", r))
			if store, err = cache.Open(filepath.Join(dir, fmt.Sprintf("cache-%d", r)), cache.ModeRW); err != nil {
				return err
			}
			c, err = dist.NewCoordinator(g, dist.Options{Cache: store, CheckpointDir: ckpt})
			return err
		})
		if err != nil {
			return it, err
		}
		var res *sweep.Results
		it.work, err = phase(func() (err error) {
			res, _, err = dist.RunCoordinator(context.Background(), c, workers)
			return err
		})
		if err != nil {
			return it, err
		}
		it.rows, it.load = res.Runs, res.Load
		chk.check(rep, it.rows, "sweep")
		checkDistState(rep, ckpt, store, len(it.rows), "sweep")
		return it, nil
	}
	traced := func(dir string, it sweepIter) (map[string]float64, *recorder, error) {
		lm, rec, err := traceFleetGrid(rep, g, chk, it.rows, dir, it.work.wall)
		if err == nil {
			lm["cache.hit_ratio"] = hitRatio(store.Stats())
		}
		return lm, rec, err
	}
	return runSweep(cfg, rep, "fleet-grid", iterations(cfg, 2500*time.Millisecond, 10*time.Second), exec, traced)
}

// checkDistState checks what a finished distributed sweep leaves
// behind: a journal that reloads with every unit done, and one store
// write per row.
func checkDistState(rep *report, ckpt string, store *cache.Store, rows int, pass string) {
	ck, err := dist.LoadCheckpoint(ckpt)
	rep.op(err == nil && ck.Completed == rows, "%s: journal reload: %v (completed %v of %d)", pass, err, ck, rows)
	st := store.Stats()
	rep.op(st.Writes == int64(rows), "%s: store wrote %d rows, want %d", pass, st.Writes, rows)
}

func hitRatio(st cache.Stats) float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// traceFleetGrid runs the traced passes of one fleet-grid iteration:
// the coordinator pass behind a timing Backend (the workload's own
// path), the scenario pass through the stepper seams, the input probe
// and the row encode/cache probe.
func traceFleetGrid(rep *report, g sweep.Grid, chk *sweepChecker, rows []sweep.RunResult, dir string, untraced time.Duration) (map[string]float64, *recorder, error) {
	rec := newRecorder()

	// Coordinator pass.
	store, err := cache.Open(filepath.Join(dir, "traced-cache"), cache.ModeRW)
	if err != nil {
		return nil, nil, err
	}
	ckpt := filepath.Join(dir, "traced-journal")
	t0 := time.Now()
	c, err := dist.NewCoordinator(g, dist.Options{Cache: store, CheckpointDir: ckpt})
	if err != nil {
		return nil, nil, err
	}
	tb := newTimedBackend(c, rec)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = dist.Work(context.Background(), tb, dist.WorkerOptions{Name: fmt.Sprintf("local-%d", i)})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		return nil, nil, err
	}
	distWall := time.Since(t0)
	chk.check(rep, res.Runs, "coordinator pass")
	checkDistState(rep, ckpt, store, len(res.Runs), "coordinator pass")
	if !tb.wcharOK.Load() {
		return nil, nil, fmt.Errorf("reading /proc/self/io around Complete failed")
	}

	sp, err := stepperPass(g, rec)
	if err != nil {
		return nil, nil, err
	}
	chk.check(rep, sp.rows, "stepper pass")
	if err := inputProbe(rep, rec, sp); err != nil {
		return nil, nil, err
	}
	encBytes, err := rowCacheProbe(rep, rec, g, rows, filepath.Join(dir, "probe-cache"))
	if err != nil {
		return nil, nil, err
	}

	lm := sweepLayers(rec, sp)
	ls := layerTimes(rec.snapshot())
	st := c.Stats()
	lm["dist.leases"] = float64(st.Leases)
	lm["dist.lease_ms"] = ms(statOf(ls, "dist.lease").total)
	completes := statOf(ls, "dist.complete")
	lm["dist.completes"] = float64(len(completes.durs))
	lm["dist.complete_ms"] = ms(completes.total)
	lm["dist.complete_p99_ms"] = tailOf(completes.durs, 99)
	lm["dist.complete_wchar_bytes"] = float64(tb.wchar.Load())
	lm["encode.bytes"] = float64(encBytes)
	lm["tracing.overhead_frac"] = distWall.Seconds()/untraced.Seconds() - 1
	return lm, rec, nil
}

// inputKey names one shared input the loader builds once.
type inputKey struct {
	seed              int64
	vms, hist, eval   int
	predictor, traceS string
}

// stepperPassOut is what the scenario pass produced.
type stepperPassOut struct {
	rows   []sweep.RunResult
	inputs map[inputKey]topology.Config // one resolved config per shared input
	wall   time.Duration
	slots  int
	epochs int
	calls  int // dispatch probe calls
}

// stepperPass executes every scenario of g on workers goroutines
// through the public seams the engine composes: Runner.StepperConfig
// (input loading), topology.NewStepper and Step (replay, with each
// policy wrapped by a timing alloc.Policy), Result, and a
// topology.DispatchAt probe on the same fleet, trace and epoch hours.
// Rows are assembled the way the engine assembles them, so their
// digest must equal the untraced run's.
func stepperPass(g sweep.Grid, rec *recorder) (*stepperPassOut, error) {
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return nil, err
	}
	scens, err := sweep.Expand(rn.Grid())
	if err != nil {
		return nil, err
	}
	out := &stepperPassOut{rows: make([]sweep.RunResult, len(scens)), inputs: make(map[inputKey]topology.Config)}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		idx      = make(chan int)
	)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				s := scens[i]
				row, cfg, st, err := traceScenario(rn, s, rec, false)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("scenario %s: %w", s.ID(), err)
				}
				if err == nil {
					out.rows[i] = row
					out.slots += row.Slots
					out.epochs += st.epochs
					out.calls += st.calls
					k := inputKey{s.Seed, s.VMs, s.HistoryDays, s.EvalDays, s.Predictor, s.TraceSpec}
					if _, ok := out.inputs[k]; !ok {
						out.inputs[k] = cfg
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := range scens {
		idx <- i
	}
	close(idx)
	wg.Wait()
	out.wall = time.Since(t0)
	return out, firstErr
}

type dispatchStats struct{ calls, epochs int }

// traceScenario runs one scenario through the stepper seams. With
// fork, the stepper is cloned halfway and the clone steps the rest, as
// a live fork does; its result still covers the whole horizon.
func traceScenario(rn *sweep.Runner, s sweep.Scenario, rec *recorder, fork bool) (sweep.RunResult, topology.Config, dispatchStats, error) {
	id := s.ID()
	root := rec.begin("scenario", id, noParent)
	defer rec.end(root)

	h := rec.begin("load", id, root)
	cfg, err := rn.StepperConfig(s)
	rec.end(h)
	if err != nil {
		return sweep.RunResult{}, cfg, dispatchStats{}, err
	}
	cur := root
	newPolicy := cfg.NewPolicy
	cfg.NewPolicy = func(m power.Model) (alloc.Policy, error) {
		p, err := newPolicy(m)
		if err != nil {
			return nil, err
		}
		return &timedPolicy{Policy: p, rec: rec, id: id, parent: &cur}, nil
	}

	h = rec.begin("stepper.new", id, root)
	st, err := topology.NewStepper(cfg)
	rec.end(h)
	if err != nil {
		return sweep.RunResult{}, cfg, dispatchStats{}, err
	}
	for stepped := 0; !st.Done(); stepped++ {
		if fork && stepped == st.Slots()/2 {
			h = rec.begin("clone", id, root)
			st, err = st.Clone()
			rec.end(h)
			if err != nil {
				return sweep.RunResult{}, cfg, dispatchStats{}, err
			}
		}
		cur = rec.begin("step", id, root)
		_, err := st.Step()
		rec.end(cur)
		if err != nil {
			return sweep.RunResult{}, cfg, dispatchStats{}, err
		}
	}
	cur = root
	h = rec.begin("result", id, root)
	fres, err := st.Result()
	rec.end(h)
	if err != nil {
		return sweep.RunResult{}, cfg, dispatchStats{}, err
	}
	ds, err := dispatchProbe(rec, id, root, cfg, st.Fleet(), st.Slots())
	if err != nil {
		return sweep.RunResult{}, cfg, dispatchStats{}, err
	}
	return rowOf(s, cfg, fres), cfg, ds, nil
}

// dispatchProbe calls topology.DispatchAt as the fleet stepper does:
// once at hour 0 on a static multi-DC fleet, and at every epoch
// boundary (history plus the replayed samples, the boundary's hour)
// on a rebalanced one. A single-DC fleet dispatches trivially — its
// one DC takes every VM — so it is not probed.
func dispatchProbe(rec *recorder, id string, parent int, cfg topology.Config, fleet topology.Fleet, slots int) (dispatchStats, error) {
	var ds dispatchStats
	if len(fleet.DCs) < 2 {
		return ds, nil
	}
	hist := cfg.HistoryDays * trace.SamplesPerDay
	call := func(f topology.Fleet, observed, hour int) error {
		h := rec.begin("dispatch", id, parent)
		_, err := topology.DispatchAt(f, cfg.Trace, observed, hour)
		rec.end(h)
		ds.calls++
		return err
	}
	if !cfg.Rebalance.Enabled() {
		return ds, call(fleet, hist, 0)
	}
	reb := fleet
	if cfg.Rebalance.Dispatcher != "" {
		reb.Dispatcher = cfg.Rebalance.Dispatcher
	}
	for e0 := 0; e0 < slots; e0 += cfg.Rebalance.EverySlots {
		f := reb
		if e0 == 0 {
			f = fleet
		}
		if err := call(f, hist+e0*trace.SamplesPerSlot, e0%24); err != nil {
			return ds, err
		}
		ds.epochs++
	}
	return ds, nil
}

// rowOf assembles a sweep row from a finished fleet run the way the
// engine does.
func rowOf(s sweep.Scenario, cfg topology.Config, f *topology.FleetResult) sweep.RunResult {
	out := sweep.RunResult{
		Scenario:            s,
		PredictorImpl:       cfg.Predictions.Predictor,
		TotalEnergyMJ:       f.TotalEnergyMJ,
		TransitionMJ:        f.TransitionMJ,
		Violations:          f.Violations,
		MeanActive:          f.MeanActive,
		PeakActive:          f.PeakActive,
		Migrations:          f.Migrations,
		MeanPlannedFreqGHz:  f.MeanPlannedFreqGHz,
		Slots:               f.Slots,
		CrossDCMigrations:   f.CrossDCMigrations,
		LatencyWeightedViol: f.LatencyWeightedViol,
		DCCount:             len(f.DCs),
		EPScore:             f.EPScore,
		OperationalGCO2:     f.OperationalGCO2,
		EmbodiedGCO2:        f.EmbodiedGCO2,
	}
	if len(f.DCs) > 1 {
		out.PerDC = make([]sweep.DCResult, len(f.DCs))
		for i, dc := range f.DCs {
			out.PerDC[i] = sweep.DCResult{
				Name:                dc.Spec.Name,
				VMs:                 dc.VMs,
				Servers:             dc.Spec.Servers,
				EnergyMJ:            dc.EnergyMJ,
				Violations:          dc.Violations,
				MeanActive:          dc.MeanActive,
				PeakActive:          dc.PeakActive,
				Migrations:          dc.Migrations,
				EPScore:             dc.EPScore,
				CrossDCMigrations:   dc.CrossDCMigrations,
				LatencyWeightedViol: dc.LatencyWeightedViol,
				OperationalGCO2:     dc.OperationalGCO2,
				EmbodiedGCO2:        dc.EmbodiedGCO2,
			}
		}
	}
	return out
}

// newPredictor mirrors the engine's predictor axis; nil is the oracle.
func newPredictor(name string) (forecast.Predictor, error) {
	switch name {
	case "", "oracle":
		return nil, nil
	case "arima":
		return &forecast.ARIMA{Cfg: forecast.DefaultConfig()}, nil
	}
	return nil, fmt.Errorf("no predictor %q in the benchmark's workloads", name)
}

// inputProbe rebuilds every shared input of the scenario pass with
// the loader's own configs — trace.Generate, then dcsim.Predict with
// the predictor wrapped to time each Forecast — and checks both are
// bit-identical to what the loader handed the scenarios.
func inputProbe(rep *report, rec *recorder, sp *stepperPassOut) error {
	for k, cfg := range sp.inputs {
		if k.traceS != "synthetic" {
			return fmt.Errorf("input probe supports synthetic traces only, got %q", k.traceS)
		}
		id := fmt.Sprintf("seed=%d vms=%d", k.seed, k.vms)
		h := rec.begin("synth", id, noParent)
		tr, err := trace.Generate(sweep.DCTraceConfig(k.seed, k.vms, k.hist+k.eval))
		rec.end(h)
		if err != nil {
			return err
		}
		rep.op(reflect.DeepEqual(tr, cfg.Trace), "input probe: trace %s differs from the loader's", id)

		pred, err := newPredictor(k.predictor)
		if err != nil {
			return err
		}
		h = rec.begin("predict", id, noParent)
		if pred != nil {
			pred = &timedPredictor{Predictor: pred, rec: rec, parent: h}
		}
		ps, err := dcsim.Predict(tr, pred, k.hist, k.eval)
		rec.end(h)
		if err != nil {
			return err
		}
		rep.op(reflect.DeepEqual(ps, cfg.Predictions), "input probe: predictions %s differ from the loader's", id)
	}
	return nil
}

// rowCacheProbe replays the result store's row traffic of a cold
// sweep on a fresh store: for every row, encode it (json.Marshal of
// RunResult), Put it, Get it back and decode it
// (sweep.DecodeCachedRow), checking the round trip.
func rowCacheProbe(rep *report, rec *recorder, g sweep.Grid, rows []sweep.RunResult, dir string) (int, error) {
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return 0, err
	}
	store, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		return 0, err
	}
	var bytes int
	for i := range rows {
		s := rows[i].Scenario
		key, ok := rn.CacheKey(s)
		if !ok {
			return 0, fmt.Errorf("scenario %s has no cache key", s.ID())
		}
		h := rec.begin("encode", s.ID(), noParent)
		row, err := json.Marshal(rows[i])
		rec.end(h)
		if err != nil {
			return 0, err
		}
		bytes += len(row)
		h = rec.begin("cache.put", s.ID(), noParent)
		err = store.Put(key, row)
		rec.end(h)
		if err != nil {
			return 0, err
		}
		got, hit := getDecode(rec, store, key, s)
		rep.op(hit && rowsDigest([]sweep.RunResult{got}) == rowsDigest(rows[i:i+1]), "row cache probe: %s did not round-trip", s.ID())
	}
	return bytes, nil
}

// getDecode times one store Get and the decode of its row.
func getDecode(rec *recorder, store *cache.Store, key string, s sweep.Scenario) (sweep.RunResult, bool) {
	h := rec.begin("cache.get", s.ID(), noParent)
	row, hit := store.Get(key)
	rec.end(h)
	if !hit {
		return sweep.RunResult{}, false
	}
	h = rec.begin("decode", s.ID(), noParent)
	r, ok := sweep.DecodeCachedRow(row, s)
	rec.end(h)
	return r, ok
}

// statOf returns the named layer's stats, empty when it never ran.
func statOf(ls map[string]*layerStat, name string) *layerStat {
	if st, ok := ls[name]; ok {
		return st
	}
	return &layerStat{}
}

// tailOf returns the p-th percentile of durs in milliseconds, or 0
// when there are no samples.
func tailOf(durs latencies, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	return percentile(durs.sortedMs(), p)
}

// sweepLayers turns a sweep iteration's spans into per-layer metrics.
// Layers a pass never reached report zero work.
func sweepLayers(rec *recorder, sp *stepperPassOut) map[string]float64 {
	spans := rec.snapshot()
	ls := layerTimes(spans)
	lm := make(map[string]float64)

	synth := statOf(ls, "synth")
	lm["synth.ms"] = ms(synth.total)
	vmSamples := 0
	for _, cfg := range sp.inputs {
		vmSamples += len(cfg.Trace.VMs) * cfg.Trace.Samples()
	}
	lm["synth.vm_samples"] = float64(vmSamples)

	lm["predict.ms"] = ms(statOf(ls, "predict").total)
	fc := statOf(ls, "forecast")
	lm["predict.forecast_calls"] = float64(len(fc.durs))
	lm["predict.forecast_p99_us"] = tailOf(fc.durs, 99) * 1000

	lm["dispatch.ms"] = ms(statOf(ls, "dispatch").total)
	lm["dispatch.calls"] = float64(sp.calls)
	lm["rebalance.epochs"] = float64(sp.epochs)
	cross := 0
	for i := range sp.rows {
		cross += sp.rows[i].CrossDCMigrations
	}
	lm["rebalance.cross_dc_migrations"] = float64(cross)

	var allocs latencies
	byPolicy := make(map[string]time.Duration)
	for name, st := range ls {
		if pol, ok := strings.CutPrefix(name, "alloc:"); ok {
			allocs = append(allocs, st.durs...)
			byPolicy[pol] += st.total
		}
	}
	lm["alloc.ms"] = ms(allocs.sum())
	lm["alloc.calls"] = float64(len(allocs))
	lm["alloc.p50_us"] = tailOf(allocs, 50) * 1000
	lm["alloc.p99_us"] = tailOf(allocs, 99) * 1000
	lm["alloc.epact_ms"] = ms(byPolicy["EPACT"])
	lm["alloc.coat_ms"] = ms(byPolicy["COAT"])

	replay := statOf(ls, "step").self
	lm["replay.ms"] = ms(replay)
	lm["replay.slots"] = float64(sp.slots)
	if sp.slots > 0 {
		lm["replay.us_per_slot"] = us(replay) / float64(sp.slots)
	}

	lm["encode.ms"] = ms(statOf(ls, "encode").total)
	lm["decode.ms"] = ms(statOf(ls, "decode").total)
	put := statOf(ls, "cache.put")
	lm["cache.puts"] = float64(len(put.durs))
	lm["cache.put_ms"] = ms(put.total)
	get := statOf(ls, "cache.get")
	lm["cache.gets"] = float64(len(get.durs))
	lm["cache.get_ms"] = ms(get.total)
	return lm
}
