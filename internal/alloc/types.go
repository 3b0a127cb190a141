// Package alloc implements the paper's VM-allocation layer: the
// proposed EPACT method (Section V-B — Eq. 1 server sizing, Algorithm
// 1 for the CPU-dominated case, Algorithm 2 with the Eq. 2 merit
// function for the memory-dominated case) and the baselines it is
// evaluated against (COAT, the correlation-aware consolidation of Kim
// et al. [17]; COAT-OPT, the same with the optimal fixed cap; plain
// first-fit-decreasing; and load balancing).
//
// # Unit conventions
//
// CPU demand is expressed in "core-points at F_max": one VM's CPU
// utilisation sample of 70 means 70% of one core running at the
// maximum frequency. A server with C cores therefore offers C×100
// core-points at F_max and C×100×f/F_max at frequency f. Memory is in
// "container-points": each VM owns a 1 GB container, a sample of 25
// means 250 MB, and a 16 GB server offers 16×100 container-points.
//
// All allocators consume per-slot *predicted* patterns (n samples per
// slot, 12 in the paper's 1-hour slots at 5-minute sampling) and
// return an Assignment; the data-center simulator replays the actual
// traces against it.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mathx"
	"repro/internal/units"
)

// VMDemand is one VM's predicted utilisation pattern for a slot.
type VMDemand struct {
	// ID identifies the VM in the caller's world (trace index).
	ID int

	// CPU[i] is core-points at F_max for sample i of the slot.
	CPU []float64

	// Mem[i] is container-points for sample i of the slot.
	Mem []float64
}

// PeakCPU returns the maximum CPU sample.
func (v *VMDemand) PeakCPU() float64 { return mathx.Max(v.CPU) }

// PeakMem returns the maximum memory sample.
func (v *VMDemand) PeakMem() float64 { return mathx.Max(v.Mem) }

// ServerSpec describes the capacity of one (homogeneous) server for
// the allocators.
type ServerSpec struct {
	// Cores per server (16 for the NTC server).
	Cores int

	// MemContainers is how many 1 GB VM containers fit in server
	// memory (16 for 16 GB).
	MemContainers float64

	// FMax is the maximum core frequency.
	FMax units.Frequency

	// FMin is the lowest DVFS level.
	FMin units.Frequency
}

// CPUPoints returns the server's CPU capacity in core-points at FMax.
func (s ServerSpec) CPUPoints() float64 { return float64(s.Cores) * 100 }

// MemPoints returns the server's memory capacity in container-points.
func (s ServerSpec) MemPoints() float64 { return s.MemContainers * 100 }

// Validate checks the spec.
func (s ServerSpec) Validate() error {
	if s.Cores <= 0 || s.MemContainers <= 0 {
		return errors.New("alloc: server needs positive cores and memory")
	}
	if s.FMax <= 0 || s.FMin < 0 || s.FMin > s.FMax {
		return errors.New("alloc: bad frequency range")
	}
	return nil
}

// ServerPlan is the predicted load assembled on one server.
type ServerPlan struct {
	// VMs holds indices into the Allocate input slice.
	VMs []int

	// CPU and Mem are the aggregated predicted patterns (same units
	// as VMDemand).
	CPU []float64
	Mem []float64
}

// PeakCPU returns the aggregated predicted CPU peak.
func (p *ServerPlan) PeakCPU() float64 {
	if len(p.CPU) == 0 {
		return 0
	}
	return mathx.Max(p.CPU)
}

// add accumulates a VM's pattern into the plan.
func (p *ServerPlan) add(idx int, vm *VMDemand) {
	if p.CPU == nil {
		p.CPU = make([]float64, len(vm.CPU))
		p.Mem = make([]float64, len(vm.Mem))
	}
	for i := range vm.CPU {
		p.CPU[i] += vm.CPU[i]
	}
	for i := range vm.Mem {
		p.Mem[i] += vm.Mem[i]
	}
	p.VMs = append(p.VMs, idx)
}

// planArena bump-allocates ServerPlans with pre-zeroed pattern
// backing for one Allocate call. The Assignment escapes to the
// caller, so the slabs leave with it — the point is batching the ~3
// heap allocations every opened server costs (plan, CPU+Mem patterns,
// VMs growth) into a handful per chunk of servers. Patterns handed
// out are zeroed and full-capacity sliced, so add's accumulation and
// append discipline are unchanged.
type planArena struct {
	n      int // pattern length
	plans  []ServerPlan
	floats []float64
	vmIdx  []int
}

const (
	arenaChunk  = 16 // servers per slab
	arenaVMsCap = 8  // VMs capacity per server before append reallocates
)

func (a *planArena) next() *ServerPlan {
	if len(a.plans) == cap(a.plans) {
		a.plans = make([]ServerPlan, 0, arenaChunk)
		a.floats = make([]float64, 2*a.n*arenaChunk)
		a.vmIdx = make([]int, arenaVMsCap*arenaChunk)
	}
	a.plans = a.plans[:len(a.plans)+1]
	p := &a.plans[len(a.plans)-1]
	p.CPU = a.floats[:a.n:a.n]
	a.floats = a.floats[a.n:]
	p.Mem = a.floats[:a.n:a.n]
	a.floats = a.floats[a.n:]
	p.VMs = a.vmIdx[:0:arenaVMsCap]
	a.vmIdx = a.vmIdx[arenaVMsCap:]
	return p
}

// fits reports whether adding vm keeps the plan under the caps.
func (p *ServerPlan) fits(vm *VMDemand, capCPU, capMem float64) bool {
	for i := range vm.CPU {
		agg := vm.CPU[i]
		if p.CPU != nil {
			agg += p.CPU[i]
		}
		if agg > capCPU+1e-9 {
			return false
		}
	}
	for i := range vm.Mem {
		agg := vm.Mem[i]
		if p.Mem != nil {
			agg += p.Mem[i]
		}
		if agg > capMem+1e-9 {
			return false
		}
	}
	return true
}

// Assignment is an allocator's output for one slot.
type Assignment struct {
	// Policy is the allocator's name.
	Policy string

	// Servers lists the active servers with their planned loads.
	Servers []*ServerPlan

	// VMServer maps each input VM index to its server index.
	VMServer []int

	// CPUCapPoints and MemCapPoints are the per-server caps the
	// allocator packed against.
	CPUCapPoints, MemCapPoints float64

	// PlannedFreq is the frequency the cap corresponds to (the F_opt^T
	// of EPACT; F_max for COAT; the fixed optimum for COAT-OPT).
	PlannedFreq units.Frequency

	// FixedFreq marks policies whose servers run pinned at
	// PlannedFreq ("fixed cap" policies like COAT-OPT): the online
	// governor neither throttles below it at low demand nor boosts
	// above it during peaks — the paper's "less control on violations
	// during peak loads using a fixed cap".
	FixedFreq bool

	// EPACTCase records which branch EPACT took (1 = CPU-dominated,
	// 2 = memory-dominated); 0 for other policies.
	EPACTCase int
}

// ActiveServers returns the number of servers holding at least one VM.
func (a *Assignment) ActiveServers() int {
	n := 0
	for _, s := range a.Servers {
		if len(s.VMs) > 0 {
			n++
		}
	}
	return n
}

// Validate checks that every VM is assigned exactly once and plans are
// consistent with the mapping.
func (a *Assignment) Validate(numVMs int) error {
	if len(a.VMServer) != numVMs {
		return fmt.Errorf("alloc: VMServer has %d entries, want %d", len(a.VMServer), numVMs)
	}
	seen := make(map[int]int)
	for _, s := range a.Servers {
		for _, vm := range s.VMs {
			seen[vm]++
		}
	}
	for i := 0; i < numVMs; i++ {
		sv := a.VMServer[i]
		if sv < 0 || sv >= len(a.Servers) {
			return fmt.Errorf("alloc: VM %d assigned to invalid server %d", i, sv)
		}
		if seen[i] != 1 {
			return fmt.Errorf("alloc: VM %d appears %d times in server plans", i, seen[i])
		}
	}
	return nil
}

// Policy allocates one slot's predicted VM demands to servers.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// Allocate maps vms to servers. Implementations must not retain
	// or modify the input.
	Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error)
}

// errNoVMs is returned for an empty input.
var errNoVMs = errors.New("alloc: no VMs to allocate")

// checkInput validates common preconditions: uniform sample counts and
// finite, non-negative demands.
func checkInput(vms []VMDemand, spec ServerSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(vms) == 0 {
		return errNoVMs
	}
	n := len(vms[0].CPU)
	if n == 0 {
		return errors.New("alloc: empty patterns")
	}
	for i := range vms {
		if len(vms[i].CPU) != n || len(vms[i].Mem) != n {
			return fmt.Errorf("alloc: VM %d has ragged patterns", i)
		}
		for s := 0; s < n; s++ {
			c, m := vms[i].CPU[s], vms[i].Mem[s]
			if c < 0 || m < 0 {
				return fmt.Errorf("alloc: VM %d negative demand at sample %d", i, s)
			}
			if math.IsNaN(c) || math.IsInf(c, 0) || math.IsNaN(m) || math.IsInf(m, 0) {
				return fmt.Errorf("alloc: VM %d non-finite demand at sample %d", i, s)
			}
		}
	}
	return nil
}

// peakCPUs returns each VM's predicted CPU peak (VMDemand.PeakCPU),
// the first-fit-decreasing sort key of every baseline.
func peakCPUs(vms []VMDemand) []float64 {
	keys := make([]float64, len(vms))
	for i := range vms {
		keys[i] = vms[i].PeakCPU()
	}
	return keys
}

// ffdOrder fills order with the VM indices 0..len(order)-1 in
// first-fit-decreasing visiting order: keys descending, ties broken by
// index ascending. Every allocator orders VMs through it, with keys
// computed once per Allocate rather than once per comparison. For
// finite keys (checkInput rejects non-finite demands) the comparator
// is a total order, so the result is the unique sorted permutation —
// exactly the one a stable sort by key descending yields, without the
// stable sort's merge overhead.
func ffdOrder(order []int, keys []float64) []int {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case keys[a] > keys[b]:
			return -1
		case keys[b] > keys[a]:
			return 1
		}
		return a - b
	})
	return order
}
