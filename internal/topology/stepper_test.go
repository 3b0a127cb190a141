package topology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dcsim"
	"repro/internal/trace"
)

// stepperConfig builds a fleet run over days evaluated days (plus one
// history day) — the week-long cases drive 168 slots, the shape the
// live service ticks.
func stepperConfig(t *testing.T, fleetSpec string, reb RebalanceSpec, trans dcsim.TransitionModel, days int) Config {
	t.Helper()
	tr := testTrace(t, 2018, 48, days+1)
	ps, err := dcsim.Predict(tr, nil, 1, days)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Fleet:                    fleet,
		Trace:                    tr,
		Predictions:              ps,
		HistoryDays:              1,
		EvalDays:                 days,
		MaxServers:               48,
		NewPolicy:                newTestPolicy,
		Transitions:              trans,
		Rebalance:                reb,
		MigrationDowntimeSamples: DefaultMigrationDowntimeSamples,
	}
}

// TestStepperMatchesRun is the live service's bit-exactness property:
// advancing the fleet stepper one slot at a time — over a full week,
// on `single` and `triad`, static and epoch-rebalanced, with and
// without transition pricing — concatenates exactly to the batch run.
// The aggregate FleetResult must be DeepEqual (every float bit-equal),
// and the per-slot live views must reproduce the batch energy series
// bit-for-bit and sum to the batch counters.
func TestStepperMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		fleet string
		reb   RebalanceSpec
		trans dcsim.TransitionModel
		days  int
	}{
		{"single-static-week", "single", RebalanceSpec{}, dcsim.TransitionModel{}, 7},
		{"single-epoch4-takes-static-path", "single", RebalanceSpec{EverySlots: 4}, dcsim.DefaultTransitions(), 2},
		{"triad-static-default-trans", "triad", RebalanceSpec{}, dcsim.DefaultTransitions(), 2},
		{"triad-epoch4-greedy-week", "uniform@triad", RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}, dcsim.DefaultTransitions(), 7},
		{"triad-epoch5-ragged-tail", "triad", RebalanceSpec{EverySlots: 5}, dcsim.DefaultTransitions(), 1},
		{"triad-epoch4-zero-trans", "uniform@triad", RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}, dcsim.TransitionModel{}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch, err := Run(stepperConfig(t, c.fleet, c.reb, c.trans, c.days))
			if err != nil {
				t.Fatal(err)
			}

			st, err := NewStepper(stepperConfig(t, c.fleet, c.reb, c.trans, c.days))
			if err != nil {
				t.Fatal(err)
			}
			if st.Slots() != batch.Slots {
				t.Fatalf("stepper spans %d slots, batch ran %d", st.Slots(), batch.Slots)
			}
			if _, err := st.Result(); err == nil {
				t.Fatal("Result before Done succeeded")
			}

			var steps []SlotStep
			for !st.Done() {
				s, err := st.Step()
				if err != nil {
					t.Fatalf("step %d: %v", len(steps), err)
				}
				steps = append(steps, s)
			}
			if _, err := st.Step(); err == nil {
				t.Fatal("stepping past the run succeeded")
			}
			res, err := st.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, batch) {
				t.Fatalf("stepped aggregate differs from batch:\nstepped %+v\nbatch   %+v", res, batch)
			}
			if again, _ := st.Result(); again != res {
				t.Fatal("second Result call rebuilt the aggregate")
			}

			// The live per-slot views reproduce the batch series and
			// counters: energy bit-exact per slot, integer counters by
			// summation, the latency-weighted float to rounding only
			// (it sums per slot, the batch per DC-epoch).
			var viol, mig, cross, active, peak int
			var lw float64
			for i, s := range steps {
				if s.Slot != i {
					t.Fatalf("step %d reported slot %d", i, s.Slot)
				}
				if s.EnergyMJ != batch.SlotEnergyMJ[i] {
					t.Fatalf("slot %d energy %v != batch %v", i, s.EnergyMJ, batch.SlotEnergyMJ[i])
				}
				if len(s.DCs) != len(batch.DCs) {
					t.Fatalf("slot %d has %d DC views, fleet has %d", i, len(s.DCs), len(batch.DCs))
				}
				viol += s.Violations
				mig += s.Migrations
				cross += s.CrossDCMigrations
				active += s.ActiveServers
				lw += s.LatencyWeightedViol
				if s.ActiveServers > peak {
					peak = s.ActiveServers
				}
			}
			if viol != batch.Violations || mig != batch.Migrations || cross != batch.CrossDCMigrations {
				t.Errorf("summed counters (viol %d, mig %d, cross %d) != batch (%d, %d, %d)",
					viol, mig, cross, batch.Violations, batch.Migrations, batch.CrossDCMigrations)
			}
			if peak != batch.PeakActive {
				t.Errorf("peak active %d != batch %d", peak, batch.PeakActive)
			}
			if batch.Slots > 0 {
				if got := float64(active) / float64(batch.Slots); got != batch.MeanActive {
					t.Errorf("mean active %v != batch %v", got, batch.MeanActive)
				}
			}
			if math.Abs(lw-batch.LatencyWeightedViol) > 1e-9*(1+math.Abs(batch.LatencyWeightedViol)) {
				t.Errorf("latency-weighted viol %v != batch %v", lw, batch.LatencyWeightedViol)
			}

			// Per-DC sums reconcile with the per-DC batch rows.
			for d := range batch.DCs {
				var dcViol, dcMig, dcCross int
				var dcMJ float64
				for _, s := range steps {
					dcViol += s.DCs[d].Violations
					dcMig += s.DCs[d].Migrations
					dcCross += s.DCs[d].CrossDCMigrations
					dcMJ += s.DCs[d].EnergyMJ
				}
				b := batch.DCs[d]
				if dcViol != b.Violations || dcMig != b.Migrations || dcCross != b.CrossDCMigrations {
					t.Errorf("DC %q summed counters (viol %d, mig %d, cross %d) != batch (%d, %d, %d)",
						b.Spec.Name, dcViol, dcMig, dcCross, b.Violations, b.Migrations, b.CrossDCMigrations)
				}
				if math.Abs(dcMJ-b.EnergyMJ) > 1e-9*(1+math.Abs(b.EnergyMJ)) {
					t.Errorf("DC %q summed energy %v != batch %v", b.Spec.Name, dcMJ, b.EnergyMJ)
				}
			}
		})
	}
}

// TestNewStepperRejectsInvalidSamples: the per-DC simulators of later
// epochs and forks trust the trace NewStepper was given, so NewStepper
// itself must reject a bad sample anywhere in it — in the history no
// epoch replays, or in the last epoch's window, which the first epoch
// never reads — and a ragged VM, on every fleet shape.
func TestNewStepperRejectsInvalidSamples(t *testing.T) {
	const days = 1
	lastSlot := days*trace.SamplesPerDay/trace.SamplesPerSlot - 1
	spoils := []struct {
		name  string
		spoil func(tr *trace.Trace)
	}{
		{"nan-cpu-in-history", func(tr *trace.Trace) { tr.VMs[7].CPU[5] = math.NaN() }},
		{"mem-101-in-last-epoch", func(tr *trace.Trace) {
			tr.VMs[11].Mem[trace.SamplesPerDay+lastSlot*trace.SamplesPerSlot+3] = 101
		}},
		{"ragged-vm", func(tr *trace.Trace) { tr.VMs[3].CPU = tr.VMs[3].CPU[:len(tr.VMs[3].CPU)-1] }},
	}
	for _, fc := range []struct{ fleet, reb string }{
		{"single", "off"},
		{"uniform@triad", "epoch:4"},
		{"carbon-greedy@triad-carbon", "epoch:6"},
	} {
		reb, err := ParseRebalanceSpec(fc.reb)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range spoils {
			t.Run(fc.fleet+"/"+fc.reb+"/"+sp.name, func(t *testing.T) {
				cfg := stepperConfig(t, fc.fleet, reb, dcsim.DefaultTransitions(), days)
				sp.spoil(cfg.Trace)
				if _, err := NewStepper(cfg); err == nil {
					t.Fatal("NewStepper accepted the trace")
				}
			})
		}
	}
}

// TestNewStepperRejectsEmptyTrace: a trace with no VMs is an error, as
// it is for dcsim, not a run of empty slots.
func TestNewStepperRejectsEmptyTrace(t *testing.T) {
	cfg := stepperConfig(t, "triad", RebalanceSpec{}, dcsim.TransitionModel{}, 1)
	cfg.Trace = &trace.Trace{Interval: cfg.Trace.Interval}
	if _, err := NewStepper(cfg); err == nil {
		t.Fatal("NewStepper accepted a trace with no VMs")
	}
}
