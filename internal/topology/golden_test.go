package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/dcsim"
)

// fleetPathsDigest is the sha256 of the canonical dump TestFleetPathsGolden
// writes. Its columns were first pinned on the one-shot static dispatch
// stepper that unrebalanced fleets used to run through, so it pins that
// running them as a single epoch changed no column and no live slot view.
// The dump encodes results as JSON, so the digest depends on the resolved
// specs' values, not on how DCSpec represents optional fields.
const fleetPathsDigest = "84213381fcef51b347d65c72cb182a0a90f7a6f82e8c17a48975184633897aca"

// TestFleetPathsGolden hashes every FleetResult and DCRun field (the JSON
// encoding plus the per-slot energy series; the per-DC dcsim.Result is
// not serialised) and every SlotStep over a grid of fleets, power
// models, static powers, evaluation lengths and rebalance specs, and
// compares the digest with the pinned one.
func TestFleetPathsGolden(t *testing.T) {
	fleets := []string{
		"single", "triad",
		"uniform@triad", "greedy-proportional@triad", "follow-the-load@triad",
		"uniform@triad-carbon", "carbon-greedy@triad-carbon",
	}
	h := sha256.New()
	for _, days := range []int{1, 2} {
		base := stepperConfig(t, "single", RebalanceSpec{}, dcsim.DefaultTransitions(), days)
		for _, spec := range fleets {
			s, err := ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []string{"ntc", "tdp"} {
				for _, static := range []float64{0, 7.5} {
					for _, reb := range []RebalanceSpec{{}, {EverySlots: 1000}} {
						cfg := base
						cfg.Fleet, cfg.PowerModel, cfg.StaticPowerW, cfg.Rebalance = fleet, model, static, reb
						fmt.Fprintf(h, "config %s days=%d model=%s static=%v rebalance=%s\n",
							spec, days, model, static, reb)
						dumpFleetRun(t, h, cfg)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetPathsDigest {
		t.Errorf("fleet-path dump digest = %s, want %s", got, fleetPathsDigest)
	}
}

// dumpFleetRun steps cfg to exhaustion and writes every SlotStep and
// the finished FleetResult to h.
func dumpFleetRun(t *testing.T, h hash.Hash, cfg Config) {
	t.Helper()
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		step, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%+v\n", step)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s\n%v\n", out, res.SlotEnergyMJ)
}
