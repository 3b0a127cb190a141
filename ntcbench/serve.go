package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/topology"
	"repro/internal/trace"
)

const (
	// serveVMs is the live scenario's VM count.
	serveVMs = 150

	// offeredRPS is the open loop's offered rate in requests per
	// second, about half of serve_peak_rps on the reference host. It
	// is also quoted in BENCHMARK.json.
	offeredRPS = 300

	// blockCycles is how many mix cycles a closed-loop block runs. Its
	// CPU time is serve-mixed's work_cpu_s.
	blockCycles = 50

	// minCycles is the shortest open loop in mix cycles: 125 cycles
	// give 1000 scrapes, what-ifs and observes (a p99 with ten samples
	// beyond it) and 125 forks (a p90 with twelve beyond it).
	minCycles = 125

	// setupReps is how many times a run sets a daemon up and runs a
	// closed-loop block on it.
	setupReps = 3
)

// staticVariants are the static powers (W) of the six replaying
// sessions; the default session keeps the model default.
var staticVariants = []float64{5, 10, 20, 25, 35, 45}

// ingestID names the live-ingestion session.
const ingestID = "live"

// mixCycle is the request mix, repeated: a job per entry. "pair" is an
// observe of the ingestion session's next slot followed by its step.
// A fork replays up to a week of slots and costs about twice as much
// as the other 32 jobs of a cycle together.
var mixCycle = func() []string {
	var c []string
	for i := 0; i < 8; i++ {
		c = append(c, "scrape", "step", "whatif", "pair")
	}
	return append(c, "fork")
}()

// serveGrid is the daemon's base scenario: EPACT over 150 VMs on the
// carbon-greedy triad, rebalanced every 6 slots by carbon-greedy
// dispatch, with default transition costs, oracle predictions and a
// week of history and of evaluation.
func serveGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Policies:    []string{"EPACT"},
		VMs:         []int{serveVMs},
		HistoryDays: 7,
		EvalDays:    7,
		Seeds:       []int64{seed},
		Predictors:  []string{"oracle"},
		Transitions: []sweep.TransitionSpec{{Name: "default"}},
		Topologies:  []string{"carbon-greedy@triad-carbon"},
		Rebalances:  []string{"epoch:6@carbon-greedy"},
	}.WithDefaults()
}

// fixedDeltas are the warm what-ifs besides the static-power ones.
// The first is the base scenario itself.
var fixedDeltas = []string{`{"policies":["EPACT"]}`, `{"policies":["COAT"]}`, `{"power_models":["tdp"]}`}

// warmDeltas are the what-if deltas set-up executes once, the fixed
// ones and then one per static-power variant; the load phase asks them
// again and expects cache answers.
func warmDeltas() []string {
	d := append([]string(nil), fixedDeltas...)
	for _, w := range staticVariants {
		d = append(d, fmt.Sprintf(`{"static_power_w":[%g]}`, w))
	}
	return d
}

func variantID(w float64) string { return fmt.Sprintf("sp%g", w) }

// daemon is one serve.Server behind a real HTTP server on 127.0.0.1.
type daemon struct {
	srv     *serve.Server
	store   *cache.Store
	mw      *timedHandler
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
	reqID   atomic.Int64
}

func startDaemon(dir string, g sweep.Grid) (*daemon, error) {
	store, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Grid: g, Cache: store, WhatIfWorkers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, store: store, mw: &timedHandler{next: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String()}
	d.hs = &http.Server{Handler: d.mw}
	go func() { d.served <- d.hs.Serve(ln) }()
	for i := 0; i < workers; i++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return d, nil
}

// close stops the HTTP server and waits for it to return.
func (d *daemon) close() error {
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	return err
}

// do sends one request on connection conn and reads the whole reply.
func (d *daemon) do(conn int, method, path string, body []byte) (id string, code int, reply []byte, err error) {
	id = strconv.FormatInt(d.reqID.Add(1), 10)
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return id, 0, nil, err
	}
	req.Header.Set(requestIDHeader, id)
	resp, err := d.clients[conn].Do(req)
	if err != nil {
		return id, 0, nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return id, resp.StatusCode, reply, err
}

// session is the load generator's view of one replaying session.
type session struct {
	id       string
	row      sweep.RunResult // the scenario's batch row, from set-up
	planned  int             // steps issued since the session was (re)created
	inflight int             // requests in flight against it
	churning bool            // its replay ended; it is being deleted and recreated
	gen      int             // bumped on every recreation
}

// mixState is what the senders share while driving the mix.
type mixState struct {
	d      *daemon
	rep    *report
	slots  int
	warm   [][]byte // warm delta bodies
	warmRw [][]byte // their batch rows (JSON)
	base   sweep.RunResult

	mu       sync.Mutex
	idle     *sync.Cond // signalled when a session's inflight drops
	sessions []*session
	stepRR   int
	forkRR   int
	whatRR   int
	passed   int      // output checks passed since the last fold
	failures []string // and the ones that failed

	ingestMu   sync.Mutex // serialises observe+step pairs
	ingestNext int
	observe    [][]byte // observe bodies, one per evaluation slot

	// The ingestion session's churn state, guarded by mu like the
	// replaying sessions'.
	ingestChurning bool
	ingestGen      int
}

// check records one output check; the message is formatted only for a
// failure, since checks run inside the timed blocks.
func (m *mixState) check(ok bool, format string, args ...any) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.passed++
	} else {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// pick chooses the next session round-robin that is not churning and
// marks a request in flight against it. For a step it also claims the
// step, and reports whether that step ends the replay.
func (m *mixState) pick(rr *int, step bool) (s *session, last bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for range m.sessions {
		s = m.sessions[*rr%len(m.sessions)]
		*rr++
		if s.churning {
			continue
		}
		s.inflight++
		if step {
			s.planned++
			if s.planned == m.slots {
				s.churning = true
				last = true
			}
		}
		return s, last
	}
	return nil, false
}

func (m *mixState) release(s *session) {
	m.mu.Lock()
	s.inflight--
	m.idle.Broadcast()
	m.mu.Unlock()
}

// stable lists the sessions no churn can touch while a scrape is in
// flight: every session not churning, by id and generation.
func (m *mixState) stable() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{serve.DefaultSessionID: 0}
	if !m.ingestChurning {
		out[ingestID] = m.ingestGen
	}
	for _, s := range m.sessions {
		if !s.churning {
			out[s.id] = s.gen
		}
	}
	return out
}

// run performs one job of the mix on connection conn.
func (m *mixState) run(conn int, j job, due time.Time) []sample {
	switch j.kind {
	case "scrape":
		return m.scrape(conn, due)
	case "step":
		return m.step(conn, due)
	case "pair":
		return m.pair(conn, due)
	case "whatif":
		return m.whatif(conn, due)
	case "fork":
		return m.fork(conn, due)
	}
	panic("unknown job kind " + j.kind)
}

func (m *mixState) send(conn int, op, method, path string, body []byte, due time.Time) (sample, []byte) {
	id, code, reply, err := m.d.do(conn, method, path, body)
	s := sample{op: op, id: id, latency: time.Since(due), ok: err == nil && code/100 == 2}
	if !s.ok {
		m.check(false, "%s %s: status %d, error %v: %.200s", method, path, code, err, reply)
	}
	return s, reply
}

func (m *mixState) scrape(conn int, due time.Time) []sample {
	before := m.stable()
	s, page := m.send(conn, "scrape", http.MethodGet, "/metrics", nil, due)
	if s.ok {
		after := m.stable()
		missing := ""
		for id, gen := range before {
			if g, ok := after[id]; ok && g == gen && !bytes.Contains(page, []byte(`ntc_slot{session="`+id+`"}`)) {
				missing = id
			}
		}
		s.ok = m.check(bytes.HasSuffix(page, []byte("# EOF\n")) && missing == "",
			"scrape: page of %d bytes, ends in EOF %v, missing session %q", len(page), bytes.HasSuffix(page, []byte("# EOF\n")), missing)
	}
	return []sample{s}
}

func (m *mixState) step(conn int, due time.Time) []sample {
	sess, last := m.pick(&m.stepRR, true)
	if sess == nil {
		m.check(false, "step: every session is churning")
		return nil
	}
	s, _ := m.send(conn, "step", http.MethodPost, "/v1/sessions/"+sess.id+"/step", nil, due)
	m.release(sess)
	out := []sample{s}
	if last {
		out = append(out, m.churn(conn, sess, time.Now())...)
	}
	return out
}

// churn deletes a session whose replay ended and creates it again,
// once no other request is in flight against it.
func (m *mixState) churn(conn int, sess *session, due time.Time) []sample {
	m.mu.Lock()
	for sess.inflight > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
	del, _ := m.send(conn, "sessions", http.MethodDelete, "/v1/sessions/"+sess.id, nil, due)
	create, _ := m.send(conn, "sessions", http.MethodPost, "/v1/sessions", sessionBody(sess.id), time.Now())
	m.mu.Lock()
	sess.planned = 0
	sess.gen++
	sess.churning = false
	m.mu.Unlock()
	return []sample{del, create}
}

func sessionBody(id string) []byte {
	if id == ingestID {
		return []byte(`{"id":"live","ingest":true}`)
	}
	w, _ := strconv.ParseFloat(strings.TrimPrefix(id, "sp"), 64)
	return []byte(fmt.Sprintf(`{"id":%q,"static_power_w":[%g]}`, id, w))
}

// pair observes the ingestion session's next slot and steps it. When
// the replay ends, the session's totals must equal its batch row; it
// is then deleted and created again.
func (m *mixState) pair(conn int, due time.Time) []sample {
	m.ingestMu.Lock()
	defer m.ingestMu.Unlock()
	k := m.ingestNext
	obs, reply := m.send(conn, "observe", http.MethodPost, "/v1/sessions/"+ingestID+"/observe", m.observe[k], due)
	if obs.ok {
		var r struct{ Ingested int }
		obs.ok = m.check(json.Unmarshal(reply, &r) == nil && r.Ingested == k+1, "observe slot %d: %s", k, reply)
	}
	st, reply := m.send(conn, "step", http.MethodPost, "/v1/sessions/"+ingestID+"/step", nil, time.Now())
	if st.ok {
		var r struct{ Stepped, Slot int }
		st.ok = m.check(json.Unmarshal(reply, &r) == nil && r.Stepped == 1 && r.Slot == k+1, "ingest step %d: %s", k, reply)
	}
	out := []sample{obs, st}
	m.ingestNext++
	if m.ingestNext < m.slots {
		return out
	}
	m.checkIngestTotals()
	m.mu.Lock()
	m.ingestChurning = true
	m.mu.Unlock()
	del, _ := m.send(conn, "sessions", http.MethodDelete, "/v1/sessions/"+ingestID, nil, time.Now())
	create, _ := m.send(conn, "sessions", http.MethodPost, "/v1/sessions", sessionBody(ingestID), time.Now())
	m.ingestNext = 0
	m.mu.Lock()
	m.ingestChurning = false
	m.ingestGen++
	m.mu.Unlock()
	return append(out, del, create)
}

// checkIngestTotals compares the finished ingestion session's gauges
// with the base scenario's batch row. Counters must match exactly.
// The energy and carbon gauges are running sums over slots while the
// batch row sums per epoch and datacenter, so they agree to rounding:
// within ingestRelTol, the tolerance the daemon's own
// ingest-versus-batch test pins.
func (m *mixState) checkIngestTotals() {
	var page bytes.Buffer
	if err := m.d.srv.WriteMetrics(&page); err != nil {
		m.check(false, "rendering the page: %v", err)
		return
	}
	exact := map[string]float64{
		"ntc_slot":             float64(m.base.Slots),
		"ntc_fleet_violations": float64(m.base.Violations),
		"ntc_fleet_migrations": float64(m.base.Migrations),
		"ntc_fleet_ep_score":   m.base.EPScore,
	}
	for name, w := range exact {
		got, ok := gauge(page.Bytes(), name, ingestID)
		m.check(ok && got == w, "ingest session %s = %v (found %v), batch row %v", name, got, ok, w)
	}
	approx := map[string]float64{
		"ntc_fleet_energy_mj":      m.base.TotalEnergyMJ,
		"ntc_carbon_operational_g": m.base.OperationalGCO2,
		"ntc_carbon_embodied_g":    m.base.EmbodiedGCO2,
	}
	for name, w := range approx {
		got, ok := gauge(page.Bytes(), name, ingestID)
		m.check(ok && math.Abs(got-w) <= ingestRelTol*math.Abs(w), "ingest session %s = %v (found %v), batch row %v", name, got, ok, w)
	}
}

// ingestRelTol bounds the relative rounding difference between a
// running sum of slot energies and the batch aggregate.
const ingestRelTol = 1e-9

// gauge reads one session's sample of a family from a page.
func gauge(page []byte, family, session string) (float64, bool) {
	prefix := []byte(family + `{session="` + session + `"} `)
	for _, line := range bytes.Split(page, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(string(v), 64)
			return f, err == nil
		}
	}
	return 0, false
}

func (m *mixState) whatif(conn int, due time.Time) []sample {
	m.mu.Lock()
	i := m.whatRR % len(m.warm)
	m.whatRR++
	m.mu.Unlock()
	s, reply := m.send(conn, "whatif", http.MethodPost, "/v1/sessions/default/whatif", m.warm[i], due)
	if s.ok {
		var r struct {
			Scenarios, Executed int
			CacheHits           int `json:"cache_hits"`
			Rows                []json.RawMessage
		}
		err := json.Unmarshal(reply, &r)
		s.ok = m.check(err == nil && r.Scenarios == 1 && r.Executed == 0 && r.CacheHits == 1 &&
			len(r.Rows) == 1 && bytes.Equal(r.Rows[0], m.warmRw[i]),
			"warm what-if %s: executed %d, hits %d, row matches %v", m.warm[i], r.Executed, r.CacheHits,
			len(r.Rows) == 1 && bytes.Equal(r.Rows[0], m.warmRw[i]))
	}
	return []sample{s}
}

func (m *mixState) fork(conn int, due time.Time) []sample {
	sess, _ := m.pick(&m.forkRR, false)
	if sess == nil {
		m.check(false, "fork: every session is churning")
		return nil
	}
	s, reply := m.send(conn, "fork", http.MethodPost, "/v1/sessions/"+sess.id+"/whatif", []byte(`{"fork":true}`), due)
	m.release(sess)
	if s.ok {
		var f serve.ForkResponse
		err := json.Unmarshal(reply, &f)
		row := &sess.row
		s.ok = m.check(err == nil && f.TotalEnergyMJ == row.TotalEnergyMJ && f.TotalViolations == row.Violations &&
			f.EPScore == row.EPScore && f.TotalOperationalGCO2 == row.OperationalGCO2 && f.TotalEmbodiedGCO2 == row.EmbodiedGCO2,
			"fork of %s at slot %d: totals %v MJ / %d viol, batch row %v MJ / %d viol (%v)",
			sess.id, f.Slot, f.TotalEnergyMJ, f.TotalViolations, row.TotalEnergyMJ, row.Violations, err)
	}
	return []sample{s}
}

// setupDaemon starts a daemon, creates its sessions and warms the
// what-if deltas, returning the warm rows in delta order.
func setupDaemon(dir string, g sweep.Grid) (*daemon, [][]byte, error) {
	d, err := startDaemon(dir, g)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*daemon, [][]byte, error) {
		_ = d.close() // the set-up error is the one to report
		return nil, nil, err
	}
	ids := []string{ingestID}
	for _, w := range staticVariants {
		ids = append(ids, variantID(w))
	}
	for _, id := range ids {
		if _, code, reply, err := d.do(0, http.MethodPost, "/v1/sessions", sessionBody(id)); err != nil || code != http.StatusCreated {
			return fail(fmt.Errorf("creating session %s: %d %v %s", id, code, err, reply))
		}
	}
	var rows [][]byte
	for _, body := range warmDeltas() {
		_, code, reply, err := d.do(0, http.MethodPost, "/v1/sessions/default/whatif", []byte(body))
		var r struct {
			Executed int
			Rows     []json.RawMessage
		}
		if err == nil {
			err = json.Unmarshal(reply, &r)
		}
		if err != nil || code != http.StatusOK || r.Executed != 1 || len(r.Rows) != 1 {
			return fail(fmt.Errorf("warming %s: %d %v %.200s", body, code, err, reply))
		}
		rows = append(rows, r.Rows[0])
	}
	return d, rows, nil
}

// observeBodies renders the ingestion session's observe requests: the
// batch trace's own samples, slot by slot.
func observeBodies(g sweep.Grid) ([][]byte, error) {
	s := g.Seeds[0]
	tr, err := trace.Generate(sweep.DCTraceConfig(s, g.VMs[0], g.HistoryDays+g.EvalDays))
	if err != nil {
		return nil, err
	}
	slots := g.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot
	first := g.HistoryDays * trace.SamplesPerDay
	out := make([][]byte, slots)
	for k := range out {
		lo := first + k*trace.SamplesPerSlot
		req := struct {
			Slot int         `json:"slot"`
			CPU  [][]float64 `json:"cpu"`
			Mem  [][]float64 `json:"mem"`
		}{Slot: k}
		for _, vm := range tr.VMs {
			req.CPU = append(req.CPU, vm.CPU[lo:lo+trace.SamplesPerSlot])
			req.Mem = append(req.Mem, vm.Mem[lo:lo+trace.SamplesPerSlot])
		}
		if out[k], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mixKind is the job kind of the mix's seq-th job.
func mixKind(seq int) string { return mixCycle[seq%len(mixCycle)] }

// requestsPerCycle counts the HTTP requests of one mix cycle, churn
// aside.
func requestsPerCycle() int {
	n := 0
	for _, k := range mixCycle {
		if k == "pair" {
			n += 2
		} else {
			n++
		}
	}
	return n
}

// openSchedule lays the mix out at offeredRPS for the given duration,
// but for at least minCycles cycles, so that every reported
// percentile has enough samples beyond it.
func openSchedule(d time.Duration) []job {
	jobsPerSec := offeredRPS * float64(len(mixCycle)) / float64(requestsPerCycle())
	n := max(int(jobsPerSec*d.Seconds()), minCycles*len(mixCycle))
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{seq: i, kind: mixKind(i), due: time.Duration(float64(i) / jobsPerSec * float64(time.Second))}
	}
	return jobs
}

// runServeMixed drives the live daemon.
func runServeMixed(cfg runConfig, rep *report) error {
	g := serveGrid(cfg.seed)
	observe, err := observeBodies(g)
	if err != nil {
		return err
	}

	// Every set-up builds a fresh daemon and runs one closed-loop block
	// of the mix on it, so each block starts from the same state. The
	// last daemon then carries the open loop; in a traced run its block
	// is the traced one.
	var setups, cpus, walls, peaks []float64
	var d *daemon
	defer func() {
		if d != nil {
			_ = d.close() // only reached after an earlier error
		}
	}()
	var rows [][]byte
	var m *mixState
	var lm map[string]float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			err := d.close()
			d = nil
			if err != nil {
				return err
			}
		}
		var r [][]byte
		setup, err := phase(func() (err error) {
			d, r, err = setupDaemon(filepath.Join(cfg.dir, fmt.Sprintf("daemon-%d", i)), g)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, setup.cpu.Seconds())
		if rows != nil {
			same := len(r) == len(rows)
			for k := 0; same && k < len(r); k++ {
				same = bytes.Equal(r[k], rows[k])
			}
			rep.op(same, "set-up %d: warm rows differ from the first set-up's", i)
		}
		rows = r
		if m, err = newMix(d, rep, rows, observe); err != nil {
			return err
		}

		tracedBlock := cfg.trace && i == setupReps-1
		if tracedBlock {
			d.mw.rec.Store(newRecorder())
		}
		var samples []sample
		block, _ := phase(func() error {
			samples, _ = closedLoop(blockCycles*len(mixCycle), mixKind, workers, m.run)
			return nil
		})
		cpu, wall := block.cpu, block.wall
		m.fold()
		fmt.Fprintf(cfg.log, "serve-mixed: closed loop %d: %d requests in %.3f s wall, %.3f s CPU (traced %v)\n",
			i, len(samples), wall.Seconds(), cpu.Seconds(), tracedBlock)
		if tracedBlock {
			lm = map[string]float64{"tracing.overhead_frac": wall.Seconds()/median(walls) - 1}
			d.mw.rec.Store(newRecorder()) // the open loop's spans only
			continue
		}
		cpus = append(cpus, cpu.Seconds())
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, float64(len(samples))/wall.Seconds())
		rep.info["closed_loop"] = summarize(samples, wall)
	}
	rep.info["setup_cpu_s"] = setups
	rep.info["work_cpu_s"] = cpus
	rep.info["work_cpu_quartiles_s"] = quartiles(cpus)
	rep.info["work_wall_s"] = walls
	rep.info["serve_peak_rps"] = peaks
	rep.info["offered_rps"] = offeredRPS

	var open []sample
	var late latencies
	loop, _ := phase(func() error {
		open, late = openLoop(openSchedule(cfg.seconds), workers, m.run)
		return nil
	})
	m.fold()
	rep.info["open_loop"] = summarize(open, loop.wall)
	fmt.Fprintf(cfg.log, "serve-mixed: open loop %d requests, late p99 %.3f ms\n", len(open), tailOf(late, 99))
	checkOpenSamples(rep, open)

	if !cfg.trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("work_cpu_s", "s", median(cpus))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		return nil
	}
	rec := d.mw.rec.Swap(nil)
	lm["serve_peak_rps"] = median(peaks)
	lm["work_wall_s"] = median(walls)
	lm["loadgen.sent"] = float64(len(open))
	lm["loadgen.late_p99_ms"] = tailOf(late, 99)
	addRuntime(lm, &loop.m0, &loop.m1)
	rep.info["samples"] = latencyTails(rep, lm, open, rec.snapshot())
	if err := serveProbes(rep, rec, lm, d, g, m.base, rows); err != nil {
		return err
	}
	return finishTraced(cfg, rep, "serve-mixed", []map[string]float64{lm}, rec, median(walls)*1000)
}

// serveProbes times the layers under the daemon through their public
// seams, on the daemon's own state: the exposition writer, result
// store reads of the warm rows, a fork (stepper, clone, replay to the
// end) of the base scenario, and its inputs.
func serveProbes(rep *report, rec *recorder, lm map[string]float64, d *daemon, g sweep.Grid, base sweep.RunResult, rows [][]byte) error {
	size := 0
	for i := 0; i < expoProbes; i++ {
		var page bytes.Buffer
		h := rec.begin("expo", "", noParent)
		err := d.srv.WriteMetrics(&page)
		rec.end(h)
		if err != nil {
			return err
		}
		size = page.Len()
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return err
	}
	for i := 0; i < cacheProbes; i++ {
		for _, row := range rows {
			var r sweep.RunResult
			if err := json.Unmarshal(row, &r); err != nil {
				return err
			}
			key, ok := rn.CacheKey(r.Scenario)
			if !ok {
				return fmt.Errorf("scenario %s has no cache key", r.Scenario.ID())
			}
			got, hit := getDecode(rec, d.store, key, r.Scenario)
			again, err := json.Marshal(got)
			rep.op(hit && err == nil && bytes.Equal(again, row), "cache probe: %s did not decode to its row", r.Scenario.ID())
		}
	}

	scens, err := sweep.Expand(g)
	if err != nil {
		return err
	}
	sp, err := forkProbe(rn, scens[0], rec)
	if err != nil {
		return err
	}
	rep.op(rowsDigest(sp.rows) == rowsDigest([]sweep.RunResult{base}), "fork probe: totals differ from the batch row")
	if err := inputProbe(rep, rec, sp); err != nil {
		return err
	}
	for k, v := range sweepLayers(rec, sp) {
		lm[k] = v
	}
	lm["expo.write_ms"] = tailOf(statOf(layerTimes(rec.snapshot()), "expo").durs, 50)
	lm["expo.page_bytes"] = float64(size)
	lm["cache.hit_ratio"] = hitRatio(d.store.Stats())
	return nil
}

const (
	expoProbes  = 200 // page renders
	cacheProbes = 20  // reads of every warm row
)

// forkProbe replays the scenario through the stepper seams as a fork
// does: step the first half, Clone, and step the clone to the end.
func forkProbe(rn *sweep.Runner, s sweep.Scenario, rec *recorder) (*stepperPassOut, error) {
	t0 := time.Now()
	row, cfg, ds, err := traceScenario(rn, s, rec, true)
	if err != nil {
		return nil, err
	}
	return &stepperPassOut{
		rows:   []sweep.RunResult{row},
		inputs: map[inputKey]topology.Config{{s.Seed, s.VMs, s.HistoryDays, s.EvalDays, s.Predictor, s.TraceSpec}: cfg},
		wall:   time.Since(t0),
		slots:  row.Slots,
		epochs: ds.epochs,
		calls:  ds.calls,
	}, nil
}

func newMix(d *daemon, rep *report, rows [][]byte, observe [][]byte) (*mixState, error) {
	m := &mixState{d: d, rep: rep, slots: len(observe), observe: observe, warmRw: rows}
	m.idle = sync.NewCond(&m.mu)
	for _, body := range warmDeltas() {
		m.warm = append(m.warm, []byte(body))
	}
	if err := json.Unmarshal(rows[0], &m.base); err != nil {
		return nil, err
	}
	for i, w := range staticVariants {
		sess := &session{id: variantID(w)}
		if err := json.Unmarshal(rows[len(fixedDeltas)+i], &sess.row); err != nil {
			return nil, err
		}
		m.sessions = append(m.sessions, sess)
	}
	return m, nil
}

// fold moves the senders' output checks into the report.
func (m *mixState) fold() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for ; m.passed > 0; m.passed-- {
		m.rep.op(true, "")
	}
	for _, f := range m.failures {
		m.rep.op(false, "%s", f)
	}
	m.failures = nil
}

// summarize reports each operation's sample count and latency
// percentiles, and the request rate over the given time.
func summarize(samples []sample, over time.Duration) map[string]any {
	by := make(map[string]latencies)
	for _, s := range samples {
		by[s.op] = append(by[s.op], s.latency)
	}
	out := map[string]any{"requests": len(samples), "rps": float64(len(samples)) / over.Seconds()}
	for op, ls := range by {
		sorted := ls.sortedMs()
		e := map[string]any{"samples": len(ls), "p50_ms": percentile(sorted, 50)}
		if p, ok := tailPercentile(len(ls)); ok {
			e[fmt.Sprintf("p%g_ms", p)] = percentile(sorted, p)
		}
		out[op] = e
	}
	for _, op := range []string{"scrape", "step", "observe", "whatif", "fork", "sessions"} {
		if _, ok := out[op]; !ok {
			out[op] = map[string]any{"samples": 0}
		}
	}
	return out
}

// clientTails are the client latency percentiles the open loop
// reports, per operation. Forks are too costly for the thousand
// samples a p99 needs, so their tail is the p90.
var clientTails = []struct {
	op string
	ps []float64
}{
	{"scrape", []float64{50, 99}},
	{"step", []float64{50, 99}},
	{"observe", []float64{99}},
	{"whatif", []float64{50, 99}},
	{"fork", []float64{50, 90}},
}

// routeTails are the handler-time percentiles per daemon route, and
// the percentile of the time spent outside the handler.
var routeTails = []struct {
	route   string
	handler []float64
	wait    float64
}{
	{"metrics", []float64{50, 99}, 99},
	{"step", []float64{50, 99}, 99},
	{"observe", []float64{50, 99}, 99},
	{"whatif", []float64{50, 99}, 99},
	{"fork", []float64{50, 90}, 90},
	{"sessions", []float64{50}, 50},
}

// routeOf maps a client operation to the daemon route it calls.
var routeOf = map[string]string{"scrape": "metrics", "step": "step", "observe": "observe",
	"whatif": "whatif", "fork": "fork", "sessions": "sessions"}

func tailName(prefix string, p float64) string { return fmt.Sprintf("%s_p%g_ms", prefix, p) }

// putTail records the p-th percentile of durs as metric name, with
// its sample count, after checking that at least ten samples lie
// beyond it.
func putTail(rep *report, lm map[string]float64, counts map[string]int, name string, durs latencies, p float64) {
	n := len(durs)
	rep.op(tailOK(p, n), "%s: %d samples are too few for a p%g", name, n, p)
	lm[name] = tailOf(durs, p)
	counts[name] = n
}

// checkOpenSamples checks that the open loop collected enough samples
// for every client percentile.
func checkOpenSamples(rep *report, samples []sample) {
	by := byOp(samples)
	for _, t := range clientTails {
		for _, p := range t.ps {
			n := len(by[t.op])
			rep.op(tailOK(p, n), "open loop: %d %s samples are too few for a p%g", n, t.op, p)
		}
	}
}

func byOp(samples []sample) map[string]latencies {
	by := make(map[string]latencies)
	for _, s := range samples {
		by[s.op] = append(by[s.op], s.latency)
	}
	return by
}

// latencyTails records the open loop's client percentiles, and joins
// the middleware's spans to the client's samples by request id: the
// handler time per route, and the time each request spent outside its
// handler (queued behind the connection, in the network stack and in
// the client), which is client time minus handler time.
func latencyTails(rep *report, lm map[string]float64, samples []sample, spans []span) map[string]int {
	counts := make(map[string]int)
	by := byOp(samples)
	for _, t := range clientTails {
		for _, p := range t.ps {
			putTail(rep, lm, counts, tailName(t.op, p), by[t.op], p)
		}
	}
	handler := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		if s.Name == "http" {
			handler[s.ID] = s.dur()
		}
	}
	hs := make(map[string]latencies)
	waits := make(map[string]latencies)
	for _, s := range samples {
		if h, ok := handler[s.id]; ok {
			r := routeOf[s.op]
			hs[r] = append(hs[r], h)
			waits[r] = append(waits[r], s.latency-h)
		}
	}
	for _, t := range routeTails {
		for _, p := range t.handler {
			putTail(rep, lm, counts, tailName("serve."+t.route+".handler", p), hs[t.route], p)
		}
		putTail(rep, lm, counts, tailName("serve."+t.route+".wait", t.wait), waits[t.route], t.wait)
	}
	return counts
}
