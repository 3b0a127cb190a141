package topology

import (
	"fmt"

	"repro/internal/dcsim"
)

// Clone returns an independent stepper carrying this one's state: the
// clone resumes at the same next slot, with the same accumulated
// per-DC results, epoch machinery and carried power-on counts, and
// stepping it never affects the original — the primitive behind the
// live service's mid-replay what-if forks. Allocation policies are
// rebuilt fresh through cfg.NewPolicy (instances are never shared, so
// original and clone may step concurrently); the registered policies
// derive each slot's allocation from that slot's demand alone, so the
// clone continues bit-exactly (the window-concatenation property the
// stepper tests pin).
//
// Shared read-only state (trace, predictions, resolved fleet, per-DC
// server models, the current epoch's dispatch) is aliased; every
// mutable accumulator is deep-copied.
func (st *Stepper) Clone() (*Stepper, error) {
	c := &Stepper{
		cfg:        st.cfg,
		fleet:      st.fleet,
		totalSlots: st.totalSlots,
		next:       st.next,
		res:        st.res, // only non-nil once done; final and read-only
		carbon:     st.carbon,
	}
	rb := st.reb
	res := *rb.res
	res.DCs = append([]DCRun(nil), rb.res.DCs...)
	res.SlotEnergyMJ = append([]float64(nil), rb.res.SlotEnergyMJ...)
	nrb := &rebState{
		rebFleet:    rb.rebFleet,
		histSamples: rb.histSamples,
		every:       rb.every,
		downtime:    rb.downtime,

		res:           &res,
		dcSlotMJ:      make([][]float64, len(rb.dcSlotMJ)),
		dcActive:      make([][]int, len(rb.dcActive)),
		activePerSlot: append([]int(nil), rb.activePerSlot...),
		dcActiveSum:   append([]int(nil), rb.dcActiveSum...),
		models:        rb.models, // per-DC constants
		prevDC:        append([]int(nil), rb.prevDC...),
		prevActive:    append([]int(nil), rb.prevActive...),
		freqWeighted:  rb.freqWeighted,
		vmSlotTotal:   rb.vmSlotTotal,

		open:       rb.open,
		epochStart: rb.epochStart,
		epochEnd:   rb.epochEnd,
		asg:        rb.asg, // replaced wholesale per epoch, read-only within one
		sims:       make([]*dcsim.Stepper, len(rb.sims)),

		boundFleetMJ: rb.boundFleetMJ,
		boundMJ:      append([]float64(nil), rb.boundMJ...),
		boundViol:    append([]int(nil), rb.boundViol...),
		boundCross:   append([]int(nil), rb.boundCross...),
		drainIT:      append([]float64(nil), rb.drainIT...),
		drainFac:     append([]float64(nil), rb.drainFac...),
	}
	for i := range rb.dcSlotMJ {
		nrb.dcSlotMJ[i] = append([]float64(nil), rb.dcSlotMJ[i]...)
	}
	for i := range rb.dcActive {
		nrb.dcActive[i] = append([]int(nil), rb.dcActive[i]...)
	}
	if rb.open {
		// Mid-epoch: clone the live per-DC steppers with fresh policies.
		for i, sim := range rb.sims {
			if sim == nil {
				continue
			}
			pol, err := st.cfg.NewPolicy(rb.models[i].base)
			if err != nil {
				return nil, fmt.Errorf("topology: DC %q: %w", st.fleet.DCs[i].Name, err)
			}
			nrb.sims[i] = sim.Clone(pol)
		}
	}
	c.reb = nrb
	return c, nil
}
