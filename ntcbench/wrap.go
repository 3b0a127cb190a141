package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/forecast"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
)

// The timing wrappers below sit on the public seams of the layers and
// record one span per call. Each passes its inner call's results
// through unchanged, so a traced pass computes exactly what an
// untraced one does.

// timedPolicy times every Allocate of one scenario's policy. parent
// points at the scenario goroutine's current step span.
type timedPolicy struct {
	alloc.Policy
	rec    *recorder
	id     string
	parent *int
}

func (p *timedPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	h := p.rec.begin("alloc:"+p.Name(), p.id, *p.parent)
	a, err := p.Policy.Allocate(vms, spec)
	p.rec.end(h)
	return a, err
}

// timedPredictor times every Forecast under one prediction span.
// dcsim.Predict calls it from several goroutines at once.
type timedPredictor struct {
	forecast.Predictor
	rec    *recorder
	parent int
}

func (p *timedPredictor) Forecast(history []float64, horizon int) ([]float64, error) {
	h := p.rec.begin("forecast", "", p.parent)
	out, err := p.Predictor.Forecast(history, horizon)
	p.rec.end(h)
	return out, err
}

// timedBackend times a coordinator's Lease and Complete calls as the
// workers see them. Completes are serialised so that the bytes the
// process writes during each one (wchar in /proc/self/io: the journal
// rewrite and the result-store write-back) belong to that call alone.
type timedBackend struct {
	dist.Backend
	rec *recorder

	completeMu sync.Mutex
	wchar      atomic.Int64 // bytes written inside Complete calls
	wcharOK    atomic.Bool  // false once /proc/self/io could not be read
}

func newTimedBackend(b dist.Backend, rec *recorder) *timedBackend {
	t := &timedBackend{Backend: b, rec: rec}
	t.wcharOK.Store(true)
	return t
}

func (t *timedBackend) Lease(ctx context.Context, worker string, max int) (dist.LeaseReply, error) {
	h := t.rec.begin("dist.lease", worker, noParent)
	r, err := t.Backend.Lease(ctx, worker, max)
	t.rec.end(h)
	return r, err
}

func (t *timedBackend) Complete(ctx context.Context, worker string, results []dist.UnitResult, load sweep.LoadStats) error {
	t.completeMu.Lock()
	defer t.completeMu.Unlock()
	w0, err0 := readWchar()
	h := t.rec.begin("dist.complete", worker, noParent)
	err := t.Backend.Complete(ctx, worker, results, load)
	t.rec.end(h)
	w1, err1 := readWchar()
	if err0 != nil || err1 != nil {
		t.wcharOK.Store(false)
	} else {
		t.wchar.Add(w1 - w0)
	}
	return err
}

// readWchar returns the bytes this process has passed to write calls.
func readWchar() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar:")); ok {
			return strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar line in /proc/self/io")
}

// requestIDHeader carries the load generator's request id to the
// server-side middleware, which joins handler time to client time.
const requestIDHeader = "X-Request-Id"

// timedHandler wraps the daemon's handler. With a recorder installed
// it records one span per request, named "http" and keyed by the
// request id; without one it only forwards.
type timedHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	if rec == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	h := rec.begin("http", r.Header.Get(requestIDHeader), noParent)
	t.next.ServeHTTP(w, r)
	rec.end(h)
}
