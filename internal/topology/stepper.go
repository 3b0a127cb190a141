package topology

import (
	"fmt"

	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/units"
)

// DCSlotStep is one datacenter's contribution to a fleet slot: the
// live view a monitoring daemon exports per tick. At an epoch
// boundary it folds in the boundary charges billed to that slot —
// cross-DC migration energy, downtime violations, drained-DC
// power-off energy — so summing a DC's steps reproduces that DC's
// batch totals.
type DCSlotStep struct {
	// Name is the DC's resolved spec name.
	Name string

	// VMs is how many VMs the dispatcher currently places here.
	VMs int

	// EnergyMJ is the facility energy (IT × PUE) charged to this DC
	// at this slot, boundary charges included. Summed across DCs (and
	// the fleet-level SlotStep.EnergyMJ) it is bit-exact with the
	// batch FleetResult.SlotEnergyMJ series.
	EnergyMJ float64

	// ActiveServers is the DC's powered-on count this slot (0 while
	// drained).
	ActiveServers int

	// Violations counts this slot's QoS violation-samples, migration
	// downtime included at epoch boundaries.
	Violations int

	// LatencyWeightedViol is Violations scaled by the DC's WAN
	// distance (LatencyMs / WANLatencyRefMs).
	LatencyWeightedViol float64

	// Migrations counts within-DC server moves entering this slot.
	Migrations int

	// CrossDCMigrations counts VMs the rebalancer moved INTO this DC
	// at this boundary (0 off-boundary and under static dispatch).
	CrossDCMigrations int

	// OperationalGCO2 prices this slot's facility energy (boundary
	// charges included) at the DC's grid intensity for the slot's hour
	// of day; EmbodiedGCO2 is the slot's amortized manufacturing
	// carbon for the powered-on servers. Grams, derived from EnergyMJ
	// and ActiveServers — never an independent accumulator.
	OperationalGCO2 float64
	EmbodiedGCO2    float64
}

// SlotStep is one fleet slot of a live run: the fleet-level sums plus
// the per-DC breakdown, in fleet spec order.
type SlotStep struct {
	// Slot is the evaluation-period slot index (1 slot = 1 hour).
	Slot int

	// EnergyMJ is the fleet facility energy charged to this slot. It
	// is accumulated in the batch path's addition order, so it is
	// bit-exact with FleetResult.SlotEnergyMJ[Slot].
	EnergyMJ float64

	ActiveServers       int
	Violations          int
	LatencyWeightedViol float64
	Migrations          int
	CrossDCMigrations   int

	// OperationalGCO2 and EmbodiedGCO2 sum the per-DC carbon slots.
	OperationalGCO2 float64
	EmbodiedGCO2    float64

	// DCs is the per-datacenter breakdown, in fleet spec order.
	DCs []DCSlotStep
}

// Stepper advances a fleet run one slot at a time. It is the
// incremental primitive behind Run — Run is a Stepper driven to
// exhaustion — so a daemon ticking a Stepper computes bit-for-bit the
// result a batch run would: the per-DC dcsim run state is shared
// across steps (dcsim.Stepper), the rebalancer's epoch machinery
// opens and closes epochs at the same boundaries with the same
// carried power-on state, and every floating-point accumulation
// happens in the batch path's order.
//
// A Stepper is not safe for concurrent use; callers serialise Step
// (the live service steps under its own lock). A Step or Result error
// poisons the stepper — slots cannot be retried, because the carried
// state has already advanced.
type Stepper struct {
	cfg        Config
	fleet      Fleet
	totalSlots int
	next       int
	res        *FleetResult

	// carbon is the per-DC carbon pricing (fleet spec order),
	// precomputed from the resolved specs. Read-only after NewStepper.
	carbon []dcCarbon

	// reb is the epoch machinery every run steps through; an
	// unrebalanced run is one epoch.
	reb *rebState
}

// NewStepper validates cfg, resolves the fleet, dispatches the
// initial placement and builds the first epoch's per-DC simulation
// state without simulating any slot. Configuration errors that epoch
// would hit (bad platform, policy factory failure, invalid dcsim
// window) surface here rather than mid-run.
//
// The trace's samples are checked here, once, on the whole trace;
// the per-DC dcsim steppers every epoch and every Clone builds check
// only their shape. That is sound because, once a stepper is built,
// nothing writes its trace except dcsim.LiveFeed.Observe, which
// range-checks every sample it writes.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("topology: nil trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	if cfg.Predictions == nil {
		return nil, fmt.Errorf("topology: nil predictions")
	}
	if cfg.NewPolicy == nil {
		return nil, fmt.Errorf("topology: nil policy factory")
	}
	// Reject an unknown power model up front, whether or not any DC
	// ends up simulating — a misspelled axis value must fail loudly,
	// not vanish into an empty-DC path.
	if _, err := power.ResolveModel(cfg.PowerModel, power.NTCServer()); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	fleet := cfg.Fleet.Resolve(cfg.MaxServers)
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	// Materialise a positive scenario static-power override into the
	// unset specs, so dispatchers that rank by hardware proportionality
	// see each DC's effective platform cost.
	for i := range fleet.DCs {
		if fleet.DCs[i].StaticPowerW == nil && cfg.StaticPowerW > 0 {
			fleet.DCs[i].StaticPowerW = f64(cfg.StaticPowerW)
		}
	}
	st := &Stepper{cfg: cfg, fleet: fleet}
	// Precompute each DC's carbon pricing against its platform's
	// capacity (cores/GB drive the embodied amortization; the
	// power-model axis delegates capacity, so either model prices the
	// same grams).
	st.carbon = make([]dcCarbon, len(fleet.DCs))
	for i, dc := range fleet.DCs {
		m, _, err := dc.serverPlatform()
		if err != nil {
			return nil, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		st.carbon[i] = dcCarbonOf(dc, m)
	}
	if err := st.initEpochs(); err != nil {
		return nil, err
	}
	return st, nil
}

// Fleet returns the resolved fleet (absolute server counts, defaults
// and the scenario static-power override filled in). Read-only.
func (st *Stepper) Fleet() Fleet { return st.fleet }

// Slots returns how many evaluation slots the run spans.
func (st *Stepper) Slots() int { return st.totalSlots }

// Done reports whether every slot has been stepped.
func (st *Stepper) Done() bool { return st.next >= st.totalSlots }

// Step simulates the next fleet slot and returns its live view. With
// a Config.Source that has not released the next slot, Step returns
// an error wrapping dcsim.ErrAwaitingSamples and advances nothing —
// the one refusal that does not poison the stepper.
func (st *Stepper) Step() (SlotStep, error) {
	if st.Done() {
		return SlotStep{}, fmt.Errorf("topology: stepper exhausted: all %d slots stepped", st.totalSlots)
	}
	if src := st.cfg.Source; src != nil && !src.SlotReady(st.next) {
		return SlotStep{}, fmt.Errorf("topology: evaluation slot %d: %w", st.next, dcsim.ErrAwaitingSamples)
	}
	rb := st.reb
	s := st.next
	if s >= rb.epochEnd {
		rb.closeEpoch(st)
		if err := rb.openEpoch(st, s); err != nil {
			return SlotStep{}, err
		}
	}
	out := SlotStep{Slot: s, DCs: make([]DCSlotStep, len(st.fleet.DCs))}
	boundary := s == rb.epochStart
	if boundary {
		// The fleet slot energy starts from the boundary pricing sum,
		// accumulated per VM in dispatch order — the batch path's
		// prefix of SlotEnergyMJ[s] — so the per-DC additions below
		// land on it in the batch order and the total stays bit-exact.
		out.EnergyMJ = rb.boundFleetMJ
	}
	for i, dc := range st.fleet.DCs {
		d := &out.DCs[i]
		d.Name = dc.Name
		d.VMs = len(rb.asg[i])
		if boundary {
			d.EnergyMJ = rb.boundMJ[i]
			d.Violations = rb.boundViol[i]
			d.CrossDCMigrations = rb.boundCross[i]
		}
		if rb.sims[i] != nil {
			slot, err := rb.sims[i].Step()
			if err != nil {
				return SlotStep{}, fmt.Errorf("topology: DC %q: %w", dc.Name, err)
			}
			mj := slot.Energy.MJ() * dc.PUE
			d.EnergyMJ += mj
			out.EnergyMJ += mj
			d.ActiveServers = slot.ActiveServers
			d.Violations += slot.Violations
			d.Migrations = slot.Migrations
		} else if boundary && rb.prevActive[i] > 0 {
			d.EnergyMJ += rb.drainFac[i]
			out.EnergyMJ += rb.drainFac[i]
		}
		d.LatencyWeightedViol = float64(d.Violations) * latencyWeight(*dc.LatencyMs)
		ci := st.carbon[i]
		d.OperationalGCO2 = d.EnergyMJ / mjPerKWh * ci.intensity.At(s%24)
		d.EmbodiedGCO2 = float64(d.ActiveServers) * ci.gPerServerHour
		out.ActiveServers += d.ActiveServers
		out.Violations += d.Violations
		out.LatencyWeightedViol += d.LatencyWeightedViol
		out.Migrations += d.Migrations
		out.CrossDCMigrations += d.CrossDCMigrations
		out.OperationalGCO2 += d.OperationalGCO2
		out.EmbodiedGCO2 += d.EmbodiedGCO2
	}
	st.next++
	return out, nil
}

// Result aggregates the finished run into the FleetResult a batch Run
// of the same Config returns, bit for bit. It errors until Done;
// afterwards it is idempotent.
func (st *Stepper) Result() (*FleetResult, error) {
	if !st.Done() {
		return nil, fmt.Errorf("topology: stepper not done: %d of %d slots stepped", st.next, st.totalSlots)
	}
	if st.res == nil {
		st.reb.closeEpoch(st)
		st.res = st.reb.finish(st)
	}
	return st.res, nil
}

// rebState is the fleet's epoch machinery, holding what the batch
// rebalancer kept as loop state. Without rebalancing (or on a
// single-DC fleet) the one epoch spans the whole evaluation period:
// the initial dispatch and one dcsim stepper per non-empty DC. With
// Rebalance.EverySlots = N, per epoch of N slots it re-runs dispatch
// over the history plus every evaluation sample already replayed — the
// load an operator has actually observed — then simulates each DC's
// window via a per-epoch dcsim stepper seeded with the previous
// epoch's closing active-server count (allocator instances restart
// fresh: a re-dispatch is a global re-plan, and per-DC VM index sets
// change with the assignment).
//
// Every VM whose DC changes is a cross-DC migration: its resident set
// at the boundary sample is priced through
// Transitions.MigrationEnergyPerByte (charged to the destination DC's
// first epoch slot, PUE-weighted into facility energy and the
// transition share) and it serves MigrationDowntimeSamples of
// downtime, charged as QoS violation-samples at the destination —
// raw and latency-weighted.
//
// A deliberate accounting boundary: *within-DC* server moves are
// counted and priced inside each epoch (dcsim's slot-to-slot diff),
// but NOT across the boundary slot itself — the re-dispatch is a
// global re-plan whose per-DC VM index sets change, so there is no
// well-defined "previous server" for the first slot of an epoch.
// Across that boundary only the power-on/off delta
// (InitialActiveServers) and the cross-DC moves above are billed;
// with epoch:N, one boundary in every N slots skips its within-DC
// migration stats. Compare rebalanced transition_mj against
// unrebalanced rows with this in mind.
//
// The accumulation split is what keeps stepping bit-exact with the
// batch run: openEpoch folds the boundary pricing into the result
// accumulators (the batch path prices before its DC loop), closeEpoch
// folds each DC's epoch aggregates in DC index order (the batch DC
// loop), and nothing else touches the accumulators — so every
// floating-point addition happens at the batch position in the batch
// order.
type rebState struct {
	rebFleet    Fleet
	histSamples int
	every       int
	downtime    int

	res           *FleetResult
	dcSlotMJ      [][]float64
	dcActive      [][]int // per-DC per-slot powered-on servers (embodied carbon)
	activePerSlot []int
	dcActiveSum   []int
	models        []*serverModels
	prevDC        []int // VM index -> DC index of the previous epoch
	prevActive    []int
	freqWeighted  float64
	vmSlotTotal   float64

	// The open epoch.
	open                 bool
	epochStart, epochEnd int
	asg                  [][]int
	sims                 []*dcsim.Stepper // nil for drained DCs

	// Boundary charges of the open epoch, for the boundary SlotStep:
	// pricing is folded into the accumulators at openEpoch (batch
	// order), drained-DC power-off at closeEpoch (batch order), and
	// these buffers let the boundary slot's live view report both.
	boundFleetMJ float64
	boundMJ      []float64
	boundViol    []int
	boundCross   []int
	drainIT      []float64 // drained-DC power-off, IT MJ
	drainFac     []float64 // drained-DC power-off, facility MJ
}

// initEpochs builds the epoch machinery and opens the first epoch: the
// initial placement observes the history window only, so it needs no
// released evaluation slot.
func (st *Stepper) initEpochs() error {
	cfg, fleet := &st.cfg, st.fleet
	st.totalSlots = cfg.EvalDays * trace.SamplesPerDay / trace.SamplesPerSlot
	rb := &rebState{
		rebFleet:    fleet,
		histSamples: cfg.HistoryDays * trace.SamplesPerDay,
		every:       cfg.Rebalance.EverySlots,
		downtime:    cfg.MigrationDowntimeSamples,
	}
	// One datacenter has nothing to rebalance: like an unrebalanced
	// fleet it runs as a single epoch, which keeps `single` the
	// bit-exact identity under any rebalance spec.
	if !cfg.Rebalance.Enabled() || len(fleet.DCs) == 1 {
		rb.every = st.totalSlots
	}
	if rb.downtime < 0 {
		rb.downtime = 0
	}
	// The dispatcher override applies at rebalancing epochs only; the
	// initial placement stays the fleet's own static dispatch (see
	// RebalanceSpec.Dispatcher).
	if cfg.Rebalance.Dispatcher != "" {
		rb.rebFleet.Dispatcher = cfg.Rebalance.Dispatcher
	}
	n := len(fleet.DCs)
	rb.res = &FleetResult{Fleet: fleet, DCs: make([]DCRun, n), Slots: st.totalSlots}
	rb.res.SlotEnergyMJ = make([]float64, st.totalSlots)
	rb.dcSlotMJ = make([][]float64, n)
	rb.dcActive = make([][]int, n)
	rb.activePerSlot = make([]int, st.totalSlots)
	rb.dcActiveSum = make([]int, n)
	// Models and platforms are per-DC constants; policies are rebuilt
	// per epoch (stateful, and their VM universe changes).
	rb.models = make([]*serverModels, n)
	for i, dc := range fleet.DCs {
		rb.res.DCs[i].Spec = dc
		rb.dcSlotMJ[i] = make([]float64, st.totalSlots)
		rb.dcActive[i] = make([]int, st.totalSlots)
		base, p, err := dc.serverPlatform()
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		m, err := power.ResolveModel(cfg.PowerModel, base)
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		rb.models[i] = &serverModels{base: base, model: m, plat: p}
	}
	rb.prevActive = make([]int, n)
	rb.sims = make([]*dcsim.Stepper, n)
	rb.boundMJ = make([]float64, n)
	rb.boundViol = make([]int, n)
	rb.boundCross = make([]int, n)
	rb.drainIT = make([]float64, n)
	rb.drainFac = make([]float64, n)
	st.reb = rb
	return rb.openEpoch(st, 0)
}

// openEpoch re-dispatches at slot e0, prices the cross-DC moves into
// the result accumulators (the batch path prices before its DC loop)
// and builds the epoch's per-DC steppers seeded with each DC's
// carried active-server count.
func (rb *rebState) openEpoch(st *Stepper, e0 int) error {
	cfg, fleet := &st.cfg, st.fleet
	n := rb.every
	if e0+n > st.totalSlots {
		n = st.totalSlots - e0
	}
	// Observe history plus the evaluation samples already replayed.
	// The dispatch hour is the boundary slot's hour of day, which is
	// what makes epoch:N@carbon-greedy follow the sun.
	observed := rb.histSamples + e0*trace.SamplesPerSlot
	df := rb.rebFleet
	if e0 == 0 {
		df = fleet // initial placement: the fleet's own dispatcher
	}
	asg, err := DispatchAt(df, cfg.Trace, observed, e0%24)
	if err != nil {
		return err
	}
	nextDC := make([]int, len(cfg.Trace.VMs))
	for d, idxs := range asg {
		for _, v := range idxs {
			nextDC[v] = d
		}
	}

	rb.boundFleetMJ = 0
	for i := range fleet.DCs {
		rb.boundMJ[i], rb.boundViol[i], rb.boundCross[i] = 0, 0, 0
		rb.drainIT[i], rb.drainFac[i] = 0, 0
	}

	// Price the moves this re-dispatch caused.
	res := rb.res
	if rb.prevDC != nil {
		for v := range nextDC {
			if rb.prevDC[v] == nextDC[v] {
				continue
			}
			dst := nextDC[v]
			run := &res.DCs[dst]
			res.CrossDCMigrations++
			run.CrossDCMigrations++
			rb.boundCross[dst]++

			// Memory copy of the live migration: the VM's resident
			// set at the boundary sample, at the configured energy
			// per byte, lands in the destination's first epoch slot.
			bytes := cfg.Trace.VMs[v].Mem[observed] / 100 * float64(1<<30)
			mj := units.Energy(float64(cfg.Transitions.MigrationEnergyPerByte) * bytes).MJ()
			run.ITEnergyMJ += mj
			facility := mj * run.Spec.PUE
			run.EnergyMJ += facility
			res.TotalEnergyMJ += facility
			res.TransitionMJ += facility
			rb.dcSlotMJ[dst][e0] += facility
			res.SlotEnergyMJ[e0] += facility
			rb.boundMJ[dst] += facility
			rb.boundFleetMJ += facility

			// Downtime: the VM is unavailable while it moves.
			run.Violations += rb.downtime
			res.Violations += rb.downtime
			w := float64(rb.downtime) * latencyWeight(*run.Spec.LatencyMs)
			run.LatencyWeightedViol += w
			res.LatencyWeightedViol += w
			rb.boundViol[dst] += rb.downtime
		}
	}
	rb.prevDC = nextDC
	rb.asg = asg

	for i, dc := range fleet.DCs {
		rb.sims[i] = nil
		if len(asg[i]) == 0 {
			// A drained DC powers its servers down; the energy is
			// computed here (the live boundary view reports it) and
			// folded into the accumulators at closeEpoch, the batch
			// path's position for it.
			if rb.prevActive[i] > 0 {
				off := units.Energy(float64(cfg.Transitions.ServerOffEnergy) * float64(rb.prevActive[i])).MJ()
				rb.drainIT[i] = off
				rb.drainFac[i] = off * dc.PUE
			}
			continue
		}
		// The policy plans against the platform's NATIVE model: the
		// power-model axis reprices what the replay observes (Server),
		// never what the allocator decides, so tdp rows keep the ntc
		// rows' placement, frequencies and violations bit-for-bit.
		pol, err := cfg.NewPolicy(rb.models[i].base)
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		sim, err := dcsim.NewStepper(dcsim.Config{
			Trace:                subTrace(cfg.Trace, asg[i]),
			Predictions:          subPredictions(cfg.Predictions, asg[i]),
			HistoryDays:          cfg.HistoryDays,
			EvalDays:             cfg.EvalDays,
			StartSlot:            e0,
			NumSlots:             n,
			InitialActiveServers: rb.prevActive[i],
			Policy:               pol,
			Server:               rb.models[i].model,
			Platform:             rb.models[i].plat,
			MaxServers:           dc.Servers,
			Transitions:          cfg.Transitions,
			TraceLabel:           cfg.TraceLabel,
		})
		if err != nil {
			return fmt.Errorf("topology: DC %q: %w", dc.Name, err)
		}
		rb.sims[i] = sim
	}
	rb.open = true
	rb.epochStart, rb.epochEnd = e0, e0+n
	return nil
}

// closeEpoch folds the finished epoch's per-DC aggregates into the
// result accumulators — the batch rebalancer's DC loop, verbatim, in
// DC index order. An epoch spanning the whole evaluation period also
// keeps each DC's dcsim.Result.
func (rb *rebState) closeEpoch(st *Stepper) {
	if !rb.open {
		return
	}
	fleet := st.fleet
	res := rb.res
	n := rb.epochEnd - rb.epochStart
	for i, dc := range fleet.DCs {
		run := &res.DCs[i]
		run.VMs = len(rb.asg[i]) // the final epoch's count survives
		if rb.sims[i] == nil {
			if rb.prevActive[i] > 0 {
				run.ITEnergyMJ += rb.drainIT[i]
				facility := rb.drainFac[i]
				run.EnergyMJ += facility
				res.TotalEnergyMJ += facility
				res.TransitionMJ += facility
				rb.dcSlotMJ[i][rb.epochStart] += facility
				res.SlotEnergyMJ[rb.epochStart] += facility
			}
			rb.prevActive[i] = 0
			continue
		}
		sim := rb.sims[i].Finish()
		if rb.epochStart == 0 && rb.epochEnd == st.totalSlots {
			run.Result = sim
		}
		run.ITEnergyMJ += sim.TotalEnergy.MJ()
		facility := sim.TotalEnergy.MJ() * dc.PUE
		run.EnergyMJ += facility
		res.TotalEnergyMJ += facility
		res.TransitionMJ += sim.TotalTransitionEnergy.MJ() * dc.PUE
		run.Violations += sim.TotalViol
		res.Violations += sim.TotalViol
		w := float64(sim.TotalViol) * latencyWeight(*dc.LatencyMs)
		run.LatencyWeightedViol += w
		res.LatencyWeightedViol += w
		run.Migrations += sim.TotalMigrations
		res.Migrations += sim.TotalMigrations
		for _, s := range sim.Slots {
			mj := s.Energy.MJ() * dc.PUE
			rb.dcSlotMJ[i][s.Slot] += mj
			res.SlotEnergyMJ[s.Slot] += mj
			rb.dcActive[i][s.Slot] = s.ActiveServers
			rb.activePerSlot[s.Slot] += s.ActiveServers
			rb.dcActiveSum[i] += s.ActiveServers
			if s.ActiveServers > run.PeakActive {
				run.PeakActive = s.ActiveServers
			}
		}
		rb.prevActive[i] = sim.Slots[len(sim.Slots)-1].ActiveServers
		rb.freqWeighted += sim.MeanPlannedFreqGHz() * float64(len(rb.asg[i])*n)
		rb.vmSlotTotal += float64(len(rb.asg[i]) * n)
	}
	rb.open = false
}

// finish is the batch rebalancer's tail aggregation over the stitched
// series, verbatim.
func (rb *rebState) finish(st *Stepper) *FleetResult {
	res := rb.res
	activeSum := 0
	for _, a := range rb.activePerSlot {
		activeSum += a
		if a > res.PeakActive {
			res.PeakActive = a
		}
	}
	if st.totalSlots > 0 {
		res.MeanActive = float64(activeSum) / float64(st.totalSlots)
	}
	for i := range res.DCs {
		if st.totalSlots > 0 {
			res.DCs[i].MeanActive = float64(rb.dcActiveSum[i]) / float64(st.totalSlots)
		}
		// A DC that never burned anything has no series and reports
		// EPScore 0.
		if res.DCs[i].ITEnergyMJ > 0 {
			res.DCs[i].EPScore = SeriesEPScore(rb.dcSlotMJ[i])
		}
		// Carbon derives from the stitched facility-energy and
		// active-server series, slot order — boundary and drain charges
		// are already folded into dcSlotMJ at their slots.
		ci := st.carbon[i]
		var op, emb float64
		for t, mj := range rb.dcSlotMJ[i] {
			op += mj / mjPerKWh * ci.intensity.At(t%24)
			emb += float64(rb.dcActive[i][t]) * ci.gPerServerHour
		}
		res.DCs[i].OperationalGCO2 = op
		res.DCs[i].EmbodiedGCO2 = emb
		res.OperationalGCO2 += op
		res.EmbodiedGCO2 += emb
	}
	res.EPScore = SeriesEPScore(res.SlotEnergyMJ)
	res.MeanPlannedFreqGHz = rb.meanPlannedFreqGHz(st)
	return res
}

// meanPlannedFreqGHz weights the per-DC allocator cap frequencies.
// Without rebalancing every DC ran one epoch and the mean weighs each
// DC's own mean by its VMs; a single DC reports its own mean, with no
// weighted round trip. Rebalanced runs weigh each DC-epoch mean by
// VMs × slots.
func (rb *rebState) meanPlannedFreqGHz(st *Stepper) float64 {
	res := rb.res
	switch {
	case len(res.DCs) == 1:
		if sim := res.DCs[0].Result; sim != nil {
			return sim.MeanPlannedFreqGHz()
		}
	case !st.cfg.Rebalance.Enabled():
		var weighted, vms float64
		for _, run := range res.DCs {
			if run.Result != nil {
				weighted += run.Result.MeanPlannedFreqGHz() * float64(run.VMs)
				vms += float64(run.VMs)
			}
		}
		if vms > 0 {
			return weighted / vms
		}
	case rb.vmSlotTotal > 0:
		return rb.freqWeighted / rb.vmSlotTotal
	}
	return 0
}
