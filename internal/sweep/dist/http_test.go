package dist

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dcsim"
	"repro/internal/sweep"
)

// TestHTTPEndToEndDeterminism runs the real wire protocol: a coordinator behind
// an HTTP server, three workers over the JSON client — one of which
// "crashes" after leasing (its units recover via the short TTL) — and
// the merged output must still match the single-process engine
// byte-for-byte.
func TestHTTPEndToEndDeterminism(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{LeaseTTL: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	ctx := context.Background()

	// The crasher's transport is guillotined right after its first
	// lease lands (faultTransport): it holds two units it can never
	// complete — a worker kill -9'd mid-batch — and they recover via
	// the short TTL.
	crasher := newFaultTransport(NewClient(srv.URL), 3).quiet()
	crasher.killAfterLeases = 1
	if _, err := Work(ctx, crasher, WorkerOptions{Name: "crasher", Batch: 2, Poll: time.Millisecond}); err == nil {
		t.Fatal("kill -9'd worker reported success")
	}

	// Both live workers must receive work for stats.Workers to count
	// them, whatever the scheduler does: each holds its first Complete
	// until both have been granted a unit.
	var leased, wg sync.WaitGroup
	leased.Add(2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &leaseGate{Backend: NewClient(srv.URL), leased: &leased}
			_, errs[i] = Work(ctx, cl, WorkerOptions{Name: []string{"http-a", "http-b"}[i], Batch: 3, Poll: 10 * time.Millisecond})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Errorf("HTTP-distributed CSV differs from engine:\n%s\nvs\n%s", res.CSV(), want.CSV())
	}
	stats := c.Stats()
	if stats.Expired < 2 {
		t.Errorf("stats.Expired = %d, want >= 2 (the crasher's leases)", stats.Expired)
	}
	if stats.Workers != 3 {
		t.Errorf("stats.Workers = %d, want 3 (crasher included)", stats.Workers)
	}
}

// leaseGate is a worker transport that reports its first granted
// unit to leased and holds every Complete until leased reaches zero —
// every gated worker has received work. A worker blocked in Complete
// leases nothing more, so the others still find units: the unleased
// rest of the queue, or leases that expire meanwhile.
type leaseGate struct {
	Backend
	leased *sync.WaitGroup
	once   sync.Once
}

func (g *leaseGate) Lease(ctx context.Context, worker string, max int) (LeaseReply, error) {
	reply, err := g.Backend.Lease(ctx, worker, max)
	if err == nil && len(reply.Units) > 0 {
		g.once.Do(g.leased.Done)
	}
	return reply, err
}

func (g *leaseGate) Complete(ctx context.Context, worker string, results []UnitResult, load sweep.LoadStats) error {
	g.leased.Wait()
	return g.Backend.Complete(ctx, worker, results, load)
}

// TestHTTPGridRoundTripsCustomModels: the /v1/grid payload must carry
// enough for a worker to rebuild the exact Runner — including custom
// transition models that only live in the grid.
func TestHTTPGridRoundTripsCustomModels(t *testing.T) {
	g := testGrid()
	dm := dcsim.DefaultTransitions()
	g.Transitions = []sweep.TransitionSpec{{Name: "custom", Model: &dm}}

	c, err := NewCoordinator(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	got, err := NewClient(srv.URL).Grid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Transitions) != 1 || got.Transitions[0].Model == nil {
		t.Fatalf("custom transition model lost over the wire: %+v", got.Transitions)
	}
	if *got.Transitions[0].Model != dm {
		t.Errorf("model drifted over the wire: %+v vs %+v", *got.Transitions[0].Model, dm)
	}
	// And the full loop still completes and matches the engine.
	res, _, err := RunLocal(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(g, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("custom-model grid: distributed CSV differs from engine")
	}
}

// TestClientErrorsAreLoud: a client pointed at a server that speaks
// the protocol must surface coordinator-side rejections as errors.
func TestClientErrorsAreLoud(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	if err := cl.Complete(ctx, "w", []UnitResult{{Seq: 10_000}}, sweep.LoadStats{}); err == nil {
		t.Error("out-of-range completion accepted over HTTP")
	}
	if _, err := NewClient("127.0.0.1:1").Grid(ctx); err == nil {
		t.Error("unreachable coordinator produced no error")
	}
}
