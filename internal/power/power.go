// Package power models whole-system power the way the ECoST study
// scores it: energy is NodePower integrated over each phase of a run,
// and CorePower, the power above idle, is the dissipation attributable
// to the workload.
//
// The model is the standard decomposition
//
//	P = P_idle + Σ_cores u·(P_static + P_dyn·(V/V_max)²·(f/f_max))
//	      + P_mem·(memBW/memBW_max) + P_disk·diskActive
//
// with V(f) from the cluster package's DVFS table. The energy-delay
// product (EDP = Energy × Delay = P·T²) helpers live here too, since every
// experiment in the paper is scored in EDP.
package power

import "ecost/internal/cluster"

// CoreLoad describes a group of cores running at one frequency with a
// given average utilization (0..1). A co-located pair contributes two
// CoreLoads, one per application's core partition.
type CoreLoad struct {
	Cores int
	Freq  cluster.FreqGHz
	Util  float64
}

// Activity is the node-level activity snapshot the model converts to
// watts.
type Activity struct {
	Loads    []CoreLoad
	MemBWGB  float64 // consumed memory bandwidth, GB/s
	DiskBusy float64 // disk utilization 0..1
}

// NodePower returns instantaneous whole-system power (watts) for the
// given activity on a node of the given spec.
func NodePower(spec cluster.NodeSpec, act Activity) float64 {
	p := spec.IdleWatts
	vmax := cluster.Voltage(cluster.MaxFreq)
	for _, l := range act.Loads {
		if l.Cores <= 0 {
			continue
		}
		u := clamp01(l.Util)
		v := cluster.Voltage(l.Freq)
		scale := (v * v / (vmax * vmax)) * (float64(l.Freq) / float64(cluster.MaxFreq))
		p += float64(l.Cores) * u * (spec.CoreStaticWatts + spec.CoreDynWattsMax*scale)
	}
	if spec.MemBWGBps > 0 {
		p += spec.MemActiveWattsMax * clamp01(act.MemBWGB/spec.MemBWGBps)
	}
	p += spec.DiskActiveWatts * clamp01(act.DiskBusy)
	return p
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// EDP returns the energy-delay product for a run that consumed
// energyJoules over execTime seconds: E × T = P·T².
func EDP(energyJoules, execTime float64) float64 {
	return energyJoules * execTime
}
