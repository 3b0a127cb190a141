package alloc

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/mathx"
	"repro/internal/units"
)

// This file keeps verbatim copies of the baselines as they were before
// they shared ffdOrder: each re-derived VMDemand.PeakCPU inside a
// sort.SliceStable comparator. The tests require the production
// policies to produce bit-identical assignments on demand sets with
// deliberately tied peaks, where only the index tie-break keeps the
// unstable sort in step with the stable one.

// refPeakOrder is the original first-fit-decreasing order.
func refPeakOrder(vms []VMDemand) []int {
	order := make([]int, len(vms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return vms[order[a]].PeakCPU() > vms[order[b]].PeakCPU()
	})
	return order
}

func refCOATAllocate(c *COAT, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	capCPU := spec.CPUPoints() * c.CapFrac
	capMem := spec.MemPoints()
	order := refPeakOrder(vms)

	var servers []*ServerPlan
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}
	for _, idx := range order {
		vm := &vms[idx]
		firstFit := -1
		uncorrelatedFit := -1
		for j, srv := range servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			if firstFit < 0 {
				firstFit = j
			}
			if c.CorrThreshold > 0 && len(srv.VMs) > 0 {
				phi, err := mathx.Pearson(srv.CPU, vm.CPU)
				if err != nil {
					return nil, err
				}
				if phi <= c.CorrThreshold {
					uncorrelatedFit = j
					break
				}
			} else {
				uncorrelatedFit = j
				break
			}
		}
		target := uncorrelatedFit
		if target < 0 {
			target = firstFit
		}
		if target < 0 {
			servers = append(servers, &ServerPlan{})
			target = len(servers) - 1
		}
		servers[target].add(idx, vm)
		vmServer[idx] = target
	}
	planned := c.PlannedFreq
	if planned == 0 {
		planned = spec.FMax
	}
	return &Assignment{
		Policy: c.Name(), Servers: servers, VMServer: vmServer,
		CPUCapPoints: capCPU, MemCapPoints: capMem,
		PlannedFreq: planned, FixedFreq: c.FixedFreq,
	}, nil
}

func refFFDAllocate(f *FFD, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	frac := f.CapFrac
	if frac <= 0 {
		frac = 1
	}
	capCPU := spec.CPUPoints() * frac
	capMem := spec.MemPoints()
	order := refPeakOrder(vms)

	var servers []*ServerPlan
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}
	for _, idx := range order {
		vm := &vms[idx]
		target := -1
		for j, srv := range servers {
			if srv.fits(vm, capCPU, capMem) {
				target = j
				break
			}
		}
		if target < 0 {
			servers = append(servers, &ServerPlan{})
			target = len(servers) - 1
		}
		servers[target].add(idx, vm)
		vmServer[idx] = target
	}
	return &Assignment{
		Policy: f.Name(), Servers: servers, VMServer: vmServer,
		CPUCapPoints: capCPU, MemCapPoints: capMem, PlannedFreq: spec.FMax,
	}, nil
}

func refLoadBalanceAllocate(l *LoadBalance, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	n := l.Servers
	if n <= 0 {
		var total float64
		for i := range vms {
			total += vms[i].PeakCPU()
		}
		n = int(total/(spec.CPUPoints()*0.5)) + 1
	}
	servers := make([]*ServerPlan, n)
	for i := range servers {
		servers[i] = &ServerPlan{}
	}
	vmServer := make([]int, len(vms))
	for _, idx := range refPeakOrder(vms) {
		best, bestPeak := 0, servers[0].PeakCPU()
		for j := 1; j < n; j++ {
			if p := servers[j].PeakCPU(); p < bestPeak {
				best, bestPeak = j, p
			}
		}
		servers[best].add(idx, &vms[idx])
		vmServer[idx] = best
	}
	return &Assignment{
		Policy: l.Name(), Servers: servers, VMServer: vmServer,
		CPUCapPoints: spec.CPUPoints(), MemCapPoints: spec.MemPoints(), PlannedFreq: spec.FMax,
	}, nil
}

func refVermaAllocate(v *Verma, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	frac := v.CapFrac
	if frac <= 0 {
		frac = 1
	}
	capCPU := spec.CPUPoints() * frac
	capMem := spec.MemPoints()
	order := refPeakOrder(vms)

	binary := make([][]float64, len(vms))
	for i := range vms {
		binary[i] = v.binarise(vms[i].CPU)
	}
	var servers []*ServerPlan
	var serverBinary [][]float64
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}
	for _, idx := range order {
		vm := &vms[idx]
		best, bestPhi := -1, 2.0
		for j, srv := range servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			phi, err := mathx.Pearson(serverBinary[j], binary[idx])
			if err != nil {
				return nil, err
			}
			if phi < bestPhi {
				best, bestPhi = j, phi
			}
		}
		if best < 0 {
			servers = append(servers, &ServerPlan{})
			serverBinary = append(serverBinary, make([]float64, len(vm.CPU)))
			best = len(servers) - 1
		}
		servers[best].add(idx, vm)
		for i := range binary[idx] {
			serverBinary[best][i] += binary[idx][i]
		}
		vmServer[idx] = best
	}
	return &Assignment{
		Policy: v.Name(), Servers: servers, VMServer: vmServer,
		CPUCapPoints: capCPU, MemCapPoints: capMem,
		PlannedFreq: spec.FMax, FixedFreq: true,
	}, nil
}

// tiedPeakVMs is genVMs with the ties made common: most VMs get their
// peak sample rounded up to a multiple of 10 (so many share a peak but
// differ in shape), and some are all-zero.
func tiedPeakVMs(r *epactRNG, count, n int) []VMDemand {
	vms := genVMs(r, count, n, 80, 30)
	for i := range vms {
		cpu := vms[i].CPU
		switch {
		case i%13 == 7:
			for s := range cpu {
				cpu[s] = 0
			}
		case i%4 != 0:
			at := 0
			for s := range cpu {
				if cpu[s] > cpu[at] {
					at = s
				}
			}
			cpu[at] = math.Ceil(cpu[at]/10) * 10
		}
	}
	return vms
}

func TestFFDOrderMatchesReference(t *testing.T) {
	r := &epactRNG{s: 0x5eed0fdec0de}
	for trial := 0; trial < 50; trial++ {
		vms := tiedPeakVMs(r, 1+int(r.next()*120), 12)
		got := ffdOrder(make([]int, len(vms)), peakCPUs(vms))
		want := refPeakOrder(vms)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d holds VM %d, stable sort says %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBaselineAllocateMatchesReference(t *testing.T) {
	spec := ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	coat, coatOPT := NewCOAT(spec), NewCOATOPT(spec, units.GHz(1.9))
	ffd, verma := &FFD{}, NewVerma()
	type pair struct {
		policy Policy
		ref    func([]VMDemand) (*Assignment, error)
	}
	pairs := []pair{
		{coat, func(v []VMDemand) (*Assignment, error) { return refCOATAllocate(coat, v, spec) }},
		{coatOPT, func(v []VMDemand) (*Assignment, error) { return refCOATAllocate(coatOPT, v, spec) }},
		{ffd, func(v []VMDemand) (*Assignment, error) { return refFFDAllocate(ffd, v, spec) }},
		{verma, func(v []VMDemand) (*Assignment, error) { return refVermaAllocate(verma, v, spec) }},
	}
	for _, servers := range []int{0, 7} {
		lb := &LoadBalance{Servers: servers}
		pairs = append(pairs, pair{lb, func(v []VMDemand) (*Assignment, error) { return refLoadBalanceAllocate(lb, v, spec) }})
	}
	r := &epactRNG{s: 0xc0a7ffd0}
	for trial := 0; trial < 30; trial++ {
		vms := tiedPeakVMs(r, 10+int(r.next()*90), 12)
		for _, p := range pairs {
			got, err := p.policy.Allocate(vms, spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.ref(vms)
			if err != nil {
				t.Fatal(err)
			}
			assertAssignmentsBitEqual(t, fmt.Sprintf("%s trial %d", p.policy.Name(), trial), got, want)
		}
	}
}
