// Package cluster models the hardware substrate of the ECoST study: a
// local cluster of Intel Atom C2758 class microserver nodes, each with 8
// cores, a two-level cache hierarchy, 8 GB DDR3-1600 memory, and per-core
// DVFS at 1.2/1.6/2.0/2.4 GHz.
//
// The paper measures whole-system power with an external meter and
// subtracts idle power; this package carries the static node parameters
// (frequency/voltage table, bandwidths, idle power) that the power and
// performance models in internal/power and internal/mapreduce consume.
package cluster

import "fmt"

// FreqGHz is a CPU operating frequency in GHz.
type FreqGHz float64

// The DVFS operating points of the Atom C2758 study platform.
const (
	Freq1200 FreqGHz = 1.2
	Freq1600 FreqGHz = 1.6
	Freq2000 FreqGHz = 2.0
	Freq2400 FreqGHz = 2.4
)

// Frequencies lists the available DVFS levels in ascending order.
func Frequencies() []FreqGHz {
	return []FreqGHz{Freq1200, Freq1600, Freq2000, Freq2400}
}

// MinFreq and MaxFreq bound the DVFS range.
const (
	MinFreq = Freq1200
	MaxFreq = Freq2400
)

// Voltage returns the supply voltage (V) at frequency f, from a linear
// V/f table representative of low-power Silvermont-class parts
// (~0.8 V at 1.2 GHz up to ~1.16 V at 2.4 GHz). Frequencies between table
// points interpolate linearly; outside the range they clamp.
func Voltage(f FreqGHz) float64 {
	const (
		v0 = 0.80 // volts at MinFreq
		v1 = 1.16 // volts at MaxFreq
	)
	if f <= MinFreq {
		return v0
	}
	if f >= MaxFreq {
		return v1
	}
	t := float64(f-MinFreq) / float64(MaxFreq-MinFreq)
	return v0 + t*(v1-v0)
}

// ValidFreq reports whether f is one of the platform DVFS levels.
func ValidFreq(f FreqGHz) bool {
	for _, g := range Frequencies() {
		if g == f {
			return true
		}
	}
	return false
}

// NodeSpec holds the static parameters of one microserver node.
type NodeSpec struct {
	Cores      int     // physical cores (8 on the C2758)
	MemGB      float64 // system memory
	MemBWGBps  float64 // peak memory bandwidth (DDR3-1600, single channel-ish)
	DiskBWMBps float64 // sustained sequential disk bandwidth
	IdleWatts  float64 // whole-system idle power (board, mem, disk, NIC)
	// CoreDynWattsMax is the per-core dynamic power at MaxFreq and 100%
	// utilization; dynamic power scales as V^2 * f from this anchor.
	CoreDynWattsMax float64
	// CoreStaticWatts is the per-core leakage when the core is active.
	CoreStaticWatts float64
	// DiskActiveWatts is the extra power while the disk services I/O.
	DiskActiveWatts float64
	// MemActiveWattsMax is the extra power at full memory bandwidth.
	MemActiveWattsMax float64
}

// AtomC2758 returns the node specification used throughout the study:
// an 8-core Intel Atom C2758 microserver with 8 GB DDR3-1600.
func AtomC2758() NodeSpec {
	return NodeSpec{
		Cores:             8,
		MemGB:             8,
		MemBWGBps:         12.8, // DDR3-1600, single channel 64-bit
		DiskBWMBps:        140,  // 7200rpm SATA HDD sustained
		IdleWatts:         16.0, // whole system at the wall
		CoreDynWattsMax:   1.9,
		CoreStaticWatts:   0.25,
		DiskActiveWatts:   4.5,
		MemActiveWattsMax: 3.0,
	}
}

// String implements fmt.Stringer for diagnostics.
func (f FreqGHz) String() string { return fmt.Sprintf("%.1fGHz", float64(f)) }
