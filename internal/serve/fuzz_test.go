package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sweep"
	"repro/internal/topology"
)

// FuzzWhatIfDecode feeds arbitrary bytes to the what-if decoder: a
// what-if body is remote input by construction, so every input must
// either be rejected loudly or decode into a bounded, hermetic
// scenario list — never panic, never expand past the scenario bound,
// never smuggle in a file-backed input. The committed corpus under
// testdata/fuzz pins the interesting shapes; CI's chaos job replays
// it on every run.
func FuzzWhatIfDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"policies": ["EPACT", "COAT"]}`))
	f.Add([]byte(`{"policies": ["EPACT"], "vms": [24, 48], "static_power_w": [15, 30, 45]}`))
	f.Add([]byte(`{"transitions": ["none", "default"], "rebalances": ["off", "epoch:4"]}`))
	f.Add([]byte(`{"topologies": ["uniform@/etc/fleet.json"]}`))
	f.Add([]byte(`{"traces": ["csv:/etc/passwd"]}`))
	f.Add([]byte(`{"polices": ["EPACT"]}`))
	f.Add([]byte(`{"policies": ["EPACT"]} {"policies": ["COAT"]}`))
	f.Add([]byte(`{"vms": [1000000]}`))
	f.Add([]byte(blowupBody()))
	f.Add([]byte(`{"fork": true}`))
	f.Add([]byte(`{"fork": true, "policies": ["COAT"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"policies": ["EPACT"]}]`))

	const (
		maxScenarios = 16
		maxVMs       = 500
	)
	base := testGrid().WithDefaults()

	f.Fuzz(func(t *testing.T, data []byte) {
		req, scens, err := decodeWhatIf(data, base, maxScenarios, maxVMs)
		if err != nil {
			if scens != nil {
				t.Fatalf("rejected input still returned %d scenarios", len(scens))
			}
			return
		}
		if req.Fork {
			// A fork carries no delta grid: nothing to expand, nothing
			// to bound — the carried state is the scenario.
			if scens != nil {
				t.Fatalf("fork request still returned %d scenarios", len(scens))
			}
			return
		}
		if len(scens) == 0 {
			t.Fatal("accepted input decoded to zero scenarios")
		}
		if len(scens) > maxScenarios {
			t.Fatalf("decoded %d scenarios past the %d bound", len(scens), maxScenarios)
		}
		for _, sc := range scens {
			checkHermetic(t, sc, maxVMs)
		}
	})
}

// checkHermetic fails t unless an accepted scenario stays within the
// decoders' gates: VMs in (0, maxVMs], the synthetic base trace, and
// a built-in (not file-backed) fleet.
func checkHermetic(t *testing.T, sc sweep.Scenario, maxVMs int) {
	t.Helper()
	if sc.VMs <= 0 || sc.VMs > maxVMs {
		t.Fatalf("scenario VMs %d escaped the (0, %d] bound", sc.VMs, maxVMs)
	}
	if sc.TraceSpec != "synthetic" {
		t.Fatalf("scenario trace %q escaped the synthetic-only base", sc.TraceSpec)
	}
	sp, err := topology.ParseSpec(sc.Topology)
	if err != nil {
		t.Fatalf("accepted scenario has unparsable topology %q: %v", sc.Topology, err)
	}
	if sp.IsFile {
		t.Fatalf("file-backed topology %q escaped the hermeticity gate", sc.Topology)
	}
}

// FuzzSessionCreateDecode feeds arbitrary bytes to the session-create
// decoder, the other body that carries an axis delta. Every input must
// be rejected loudly or name a valid session id and pin exactly one
// hermetic, bounded scenario — the one a what-if on the new session
// re-expands to.
func FuzzSessionCreateDecode(f *testing.F) {
	f.Add([]byte(`{"id": "s1"}`))
	f.Add([]byte(`{"id": "live", "ingest": true}`))
	f.Add([]byte(`{"id": "sp45", "static_power_w": [45]}`))
	f.Add([]byte(`{"id": "tdp", "power_models": ["tdp"], "topologies": ["single"]}`))
	f.Add([]byte(`{"id": "two", "policies": ["EPACT", "COAT"]}`))
	f.Add([]byte(`{"id": "f", "fork": true}`))
	f.Add([]byte(`{"id": "bad id"}`))
	f.Add([]byte(`{"id": ""}`))
	f.Add([]byte(`{"id": "x", "topologies": ["uniform@/etc/fleet.json"]}`))
	f.Add([]byte(`{"id": "x", "vms": [1000000]}`))
	f.Add([]byte(`{"id": "x"} {"id": "y"}`))
	f.Add([]byte(`{"id": "x", "ingset": true}`))
	f.Add([]byte(`null`))

	const (
		maxScenarios = 16
		maxVMs       = 500
	)
	base := testGrid().WithDefaults()

	f.Fuzz(func(t *testing.T, data []byte) {
		id, _, scen, err := decodeSessionCreate(data, base, maxScenarios, maxVMs)
		if err != nil {
			return
		}
		if err := validSessionID(id); err != nil {
			t.Fatalf("accepted an invalid session id: %v", err)
		}
		checkHermetic(t, scen, maxVMs)
		again, err := sweep.Expand(gridForScenario(base, scen))
		if err != nil {
			t.Fatalf("the session's own scenario does not expand: %v", err)
		}
		if len(again) != 1 || again[0].ID() != scen.ID() {
			t.Fatalf("session scenario %s re-expands to %d scenarios (first %v)", scen.ID(), len(again), again)
		}
	})
}

// FuzzObserveDecode feeds arbitrary bytes to the observe decoder. It
// must never panic, and an accepted body must survive a json.Marshal
// round trip unchanged: what the session ingests is exactly what the
// body said.
func FuzzObserveDecode(f *testing.F) {
	f.Add([]byte(`{"slot": 0, "cpu": [[10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 0, 5]], "mem": [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]]}`))
	f.Add([]byte(`{"slot": 3, "cpu": [], "mem": null}`))
	f.Add([]byte(`{"slot": -1, "cpu": [[-0, 1e-300, 1e300]]}`))
	f.Add([]byte(`{"slot": 0, "cpu": [[1e999]]}`))
	f.Add([]byte(`{"slot": 0, "cpu": [["NaN"]]}`))
	f.Add([]byte(`{"slot": 0, "cpus": [[1]]}`))
	f.Add([]byte(`{"slot": 0} {"slot": 1}`))
	f.Add([]byte(`{"slot": 1.5}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeObserve(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted observe body does not marshal: %v", err)
		}
		back, err := decodeObserve(out)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("observe body changed in a round trip: %+v became %+v", req, back)
		}
	})
}
