package topology

import (
	"fmt"
	"sort"

	"repro/internal/power"
	"repro/internal/trace"
)

// Assignment maps each DC (fleet order) to the trace VM indices it
// hosts, ascending. Every VM appears in exactly one DC — DispatchAt
// partitions the population.
type Assignment [][]int

// DispatchAt partitions a trace's VMs across the fleet's datacenters
// according to the fleet's dispatcher, as of a given hour of day. It
// is a pure function of the (resolved) fleet and the trace: no
// randomness, deterministic tie-breaking, so fleet scenarios inherit
// the sweep engine's byte-determinism contract.
//
// historySamples bounds what load-aware dispatchers may observe: the
// first historySamples of each VM's series (the past a real operator
// has seen). <= 0, or more samples than the trace holds, means the
// whole trace. Load-blind dispatchers ignore it.
//
// The carbon-greedy dispatcher ranks DCs by their grid intensity AT
// hour, which is what lets the epoch rebalancer follow the sun — each
// re-dispatch re-ranks against the boundary slot's hour; the initial
// placement prices midnight (hour 0). The load-blind and load-aware
// dispatchers ignore the hour entirely.
func DispatchAt(f Fleet, tr *trace.Trace, historySamples, hour int) (Assignment, error) {
	f = f.normalized()
	switch f.Dispatcher {
	case "uniform":
		return dispatchUniform(f, tr)
	case "greedy-proportional":
		return dispatchGreedyProportional(f, tr)
	case "follow-the-load":
		return dispatchFollowTheLoad(f, tr, historySamples)
	case "carbon-greedy":
		return dispatchCarbonGreedy(f, tr, hour)
	default:
		return nil, fmt.Errorf("topology: unknown dispatcher %q", f.Dispatcher)
	}
}

// errNoDispatchableDC is returned when every DC in the fleet is
// drained (explicit share 0). Validate rejects such fleets up front;
// the dispatchers re-check so a caller that skips validation gets an
// error instead of a lost VM population.
var errNoDispatchableDC = fmt.Errorf("topology: every DC has share 0 — no dispatchable datacenter")

// dispatchUniform interleaves VMs across DCs proportionally to their
// Share, using the D'Hondt highest-averages rule: VM i goes to the DC
// minimizing (hosted+1)/share, earliest DC on ties. The result tracks
// the share quotas at every prefix, so correlated VM groups (adjacent
// IDs in the synthetic traces) spread instead of landing in one DC.
// Drained DCs (share 0) receive nothing.
func dispatchUniform(f Fleet, tr *trace.Trace) (Assignment, error) {
	out := make(Assignment, len(f.DCs))
	for v := range tr.VMs {
		best := -1
		bestQ := 0.0
		for i, dc := range f.DCs {
			if *dc.Share <= 0 {
				continue
			}
			q := float64(len(out[i])+1) / *dc.Share
			if best < 0 || q < bestQ {
				best, bestQ = i, q
			}
		}
		if best < 0 {
			return nil, errNoDispatchableDC
		}
		out[best] = append(out[best], v)
	}
	return out, nil
}

// ProportionalityScore rates a server model's hardware energy
// proportionality in [0,1]: 1 - idle/peak power, where idle is an
// empty switched-on server at F_min and peak is all cores busy at
// F_max. A perfectly proportional server (zero idle power) scores 1;
// the paper's NTC server outranks the conventional E5 class machine.
func ProportionalityScore(m *power.ServerModel) float64 {
	peak := m.CPUBoundPower(m.FMax).W()
	if peak <= 0 {
		return 0
	}
	return 1 - m.IdlePower(m.FMin).W()/peak
}

// dispatchGreedyProportional fills the most energy-proportional DC
// first: DCs are ranked by the ProportionalityScore of their server
// model (spec order on ties), and VMs in ID order fill each DC up to
// its VM capacity (servers × per-server VM slots, bounded by cores
// and 1 GB memory containers) before overflowing to the next. The
// last-ranked DC absorbs any remainder — an over-full fleet surfaces
// as pool-cap violations in the simulation, never as dropped VMs.
func dispatchGreedyProportional(f Fleet, tr *trace.Trace) (Assignment, error) {
	// The DC's effective static power shifts its idle/peak ratio, so it
	// belongs in the ranking; NewStepper materialises the scenario
	// default into the resolved specs before dispatching. The score is
	// negated so the most proportional DC fills first.
	return fillRanked(f, tr, func(_ DCSpec, m *power.ServerModel) float64 {
		return -ProportionalityScore(m)
	})
}

// dcVMCapacity is the DC's VM capacity: servers × per-server VM slots
// (bounded by cores and 1 GB memory containers); 0 = unbounded.
func dcVMCapacity(dc DCSpec, m *power.ServerModel) int {
	slots := m.Cores
	if gb := int(m.DRAM.Capacity.GB()); gb < slots {
		slots = gb
	}
	if dc.Servers > 0 {
		return dc.Servers * slots
	}
	return 0
}

// fillRanked fills the dispatchable DCs in ascending score order
// (spec order on ties): VMs in ID order fill each DC to its VM
// capacity before overflowing to the next, and the last-ranked DC
// absorbs any remainder — an over-full fleet surfaces as pool-cap
// violations in the simulation, never as dropped VMs. Drained DCs are
// never a fill target, whatever their score.
func fillRanked(f Fleet, tr *trace.Trace, score func(DCSpec, *power.ServerModel) float64) (Assignment, error) {
	type rankedDC struct {
		idx   int
		score float64
		cap   int
	}
	order := make([]rankedDC, 0, len(f.DCs))
	for i, dc := range f.DCs {
		if *dc.Share <= 0 {
			continue
		}
		m, _, err := dc.serverPlatform()
		if err != nil {
			return nil, err
		}
		order = append(order, rankedDC{idx: i, score: score(dc, m), cap: dcVMCapacity(dc, m)})
	}
	if len(order) == 0 {
		return nil, errNoDispatchableDC
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].score < order[b].score })

	out := make(Assignment, len(f.DCs))
	pos := 0
	for v := range tr.VMs {
		// Advance past full DCs; the last one takes everything left.
		for pos < len(order)-1 && order[pos].cap > 0 && len(out[order[pos].idx]) >= order[pos].cap {
			pos++
		}
		out[order[pos].idx] = append(out[order[pos].idx], v)
	}
	return out, nil
}

// dispatchCarbonGreedy fills the cleanest DC first: DCs are ranked by
// effective carbon per unit of IT energy — PUE × grid intensity at
// the dispatch hour, gCO2eq per IT-kWh — ascending (spec order on
// ties), and VMs fill each DC to its capacity before overflowing, as
// in greedy-proportional. Under an epoch rebalance (`epoch:N@
// carbon-greedy`) each boundary re-ranks at its own hour of day, so
// load follows whichever grid is clean right now — follow-the-sun.
// Dispatch optimizes grams the way greedy-proportional optimizes
// joules; it never reads the workload, so it stays a pure function of
// the fleet spec and the hour.
func dispatchCarbonGreedy(f Fleet, tr *trace.Trace, hour int) (Assignment, error) {
	return fillRanked(f, tr, func(dc DCSpec, _ *power.ServerModel) float64 {
		return dc.PUE * dc.GridIntensity.At(hour)
	})
}

// dispatchFollowTheLoad balances observed load latency-aware: each
// DC's weight is share / latency (closer DCs attract more load), and
// VMs — heaviest observed mean CPU first, stable by ID — go greedily
// to the DC with the lowest weighted load after placement. Drained
// DCs (share 0, hence weight 0) receive nothing. Only the history
// window feeds the means (the load an operator has already seen);
// dispatch never peeks at the evaluation period. Per-DC lists are
// re-sorted ascending so downstream replay order stays canonical.
func dispatchFollowTheLoad(f Fleet, tr *trace.Trace, historySamples int) (Assignment, error) {
	weights := make([]float64, len(f.DCs))
	for i, dc := range f.DCs {
		lat := *dc.LatencyMs
		if lat < 1 {
			lat = 1
		}
		weights[i] = *dc.Share / lat
	}

	type vmLoad struct {
		idx  int
		mean float64
	}
	loads := make([]vmLoad, len(tr.VMs))
	for v, vm := range tr.VMs {
		window := vm.CPU
		if historySamples > 0 && historySamples < len(window) {
			window = window[:historySamples]
		}
		sum := 0.0
		for _, c := range window {
			sum += c
		}
		mean := 0.0
		if len(window) > 0 {
			mean = sum / float64(len(window))
		}
		loads[v] = vmLoad{idx: v, mean: mean}
	}
	sort.SliceStable(loads, func(a, b int) bool { return loads[a].mean > loads[b].mean })

	out := make(Assignment, len(f.DCs))
	hosted := make([]float64, len(f.DCs))
	for _, vm := range loads {
		best := -1
		bestQ := 0.0
		for i := range f.DCs {
			if weights[i] <= 0 {
				continue
			}
			q := (hosted[i] + vm.mean) / weights[i]
			if best < 0 || q < bestQ {
				best, bestQ = i, q
			}
		}
		if best < 0 {
			return nil, errNoDispatchableDC
		}
		out[best] = append(out[best], vm.idx)
		hosted[best] += vm.mean
	}
	for i := range out {
		sort.Ints(out[i])
	}
	return out, nil
}
