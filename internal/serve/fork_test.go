package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
)

// batchRun runs a session's scenario as one batch fleet run: the
// reference every fork of that session is pinned to.
func batchRun(t *testing.T, s *Server, id string) *topology.FleetResult {
	t.Helper()
	sess, ok := s.session(id)
	if !ok {
		t.Fatalf("no session %q", id)
	}
	cfg, err := s.runner.StepperConfig(sess.Scenario())
	if err != nil {
		t.Fatalf("StepperConfig: %v", err)
	}
	batch, err := topology.Run(cfg)
	if err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	return batch
}

// postForkBody forks one session over HTTP and returns the raw body.
func postForkBody(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/"+id+"/whatif", `{"fork": true}`)
	if code != http.StatusOK {
		t.Fatalf("fork %s: status %d: %s", id, code, body)
	}
	return body
}

// checkFork pins one fork answer bit-exactly to the batch run: the
// remaining window is the batch slot-energy suffix from the fork
// point, its energy is that suffix summed in slot order, and the
// totals are the batch totals.
func checkFork(t *testing.T, body []byte, batch *topology.FleetResult, slot int) {
	t.Helper()
	var fr ForkResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Fork || fr.Slot != slot || fr.Slots != batch.Slots {
		t.Fatalf("fork at slot %d: header %+v", slot, fr)
	}
	if len(fr.SlotEnergyMJ) != batch.Slots-slot {
		t.Fatalf("fork at slot %d answered %d remaining slots, want %d", slot, len(fr.SlotEnergyMJ), batch.Slots-slot)
	}
	var rest float64
	for i, mj := range fr.SlotEnergyMJ {
		if want := batch.SlotEnergyMJ[slot+i]; mj != want {
			t.Fatalf("fork at slot %d: slot %d energy %v, batch %v", slot, slot+i, mj, want)
		}
		rest += mj
	}
	if fr.EnergyMJ != rest {
		t.Fatalf("fork at slot %d: remaining energy %v, batch suffix sums to %v", slot, fr.EnergyMJ, rest)
	}
	if fr.TotalEnergyMJ != batch.TotalEnergyMJ || fr.TotalViolations != batch.Violations ||
		fr.EPScore != batch.EPScore || fr.TotalOperationalGCO2 != batch.OperationalGCO2 ||
		fr.TotalEmbodiedGCO2 != batch.EmbodiedGCO2 {
		t.Fatalf("fork at slot %d: totals %+v diverge from batch %+v", slot, fr, batch)
	}
}

// TestForkReplaysOncePerSession pins the fork path: every fork of a
// replay session answers from one kept replay of the session's run,
// built by the first fork. Answers stay bit-exact with the batch run
// at every fork point, later forks need neither a replay nor the
// execution lease, concurrent first forks agree byte for byte, and a
// recreated session id answers from its new scenario.
func TestForkReplaysOncePerSession(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	create := func(body string) {
		t.Helper()
		if code, _, out := doReq(t, ts, http.MethodPost, "/v1/sessions", body); code != http.StatusCreated {
			t.Fatalf("creating session %s: %d %s", body, code, out)
		}
	}

	// Fork points 0, 1, mid, Slots-1 and Slots, on the default session
	// and on a tdp session (the power model whose deep copy once
	// diverged).
	create(`{"id": "tdp", "power_models": ["tdp"]}`)
	for _, id := range []string{DefaultSessionID, "tdp"} {
		sess, _ := s.session(id)
		batch := batchRun(t, s, id)
		for _, slot := range []int{0, 1, batch.Slots / 2, batch.Slots - 1, batch.Slots} {
			if n := slot - sess.Snapshot().Slot; n > 0 {
				if _, _, _, err := sess.Step(n); err != nil {
					t.Fatalf("%s: Step: %v", id, err)
				}
			}
			checkFork(t, postForkBody(t, ts, id), batch, slot)
		}
	}

	// With the replay kept, a fork answers while every lease slot is
	// held: it neither replays nor leases.
	for range cap(s.sem) {
		s.sem <- struct{}{}
	}
	answered := make(chan []byte, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader([]byte(`{"fork": true}`))))
		answered <- rec.Body.Bytes()
	}()
	select {
	case body := <-answered:
		checkFork(t, body, batchRun(t, s, DefaultSessionID), s.Snapshot().Slot)
	case <-time.After(30 * time.Second):
		t.Fatal("a fork with a kept replay waited for the execution lease")
	}
	for range cap(s.sem) {
		<-s.sem
	}

	// Concurrent first forks of a fresh session agree byte for byte.
	create(`{"id": "race", "policies": ["COAT"]}`)
	const forkers = 8
	bodies := make([][]byte, forkers)
	var wg sync.WaitGroup
	for i := range forkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/race/whatif", bytes.NewReader([]byte(`{"fork": true}`))))
			if rec.Code != http.StatusOK {
				t.Errorf("concurrent fork %d: status %d: %s", i, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}()
	}
	wg.Wait()
	for i := 1; i < forkers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("concurrent forks disagree:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	checkFork(t, bodies[0], batchRun(t, s, "race"), 0)

	// A deleted and recreated id answers from its new scenario, not
	// from the replay the old session kept.
	create(`{"id": "sp5", "static_power_w": [5]}`)
	old := batchRun(t, s, "sp5")
	checkFork(t, postForkBody(t, ts, "sp5"), old, 0)
	if code, _, body := doReq(t, ts, http.MethodDelete, "/v1/sessions/sp5", ""); code != http.StatusOK {
		t.Fatalf("deleting sp5: %d %s", code, body)
	}
	create(`{"id": "sp5", "static_power_w": [45]}`)
	recreated := batchRun(t, s, "sp5")
	if recreated.TotalEnergyMJ == old.TotalEnergyMJ {
		t.Fatal("static power 5 W and 45 W runs have the same energy; the check below would prove nothing")
	}
	checkFork(t, postForkBody(t, ts, "sp5"), recreated, 0)
}
