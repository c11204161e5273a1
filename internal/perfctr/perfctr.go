// Package perfctr is the measurement substrate of the reproduction: a
// synthetic Performance Monitoring Unit (PMU) in the style of Linux
// `perf`, and a dstat-style OS resource monitor. Together they produce
// the 14 feature metrics the ECoST classifier consumes (§3.1 of the
// paper) from a run's telemetry.
//
// The real Atom microserver exposes only a few hardware counter slots, so
// `perf` multiplexes the PMU across events and the paper re-runs each
// workload several times to obtain accurate values. The Sampler models
// exactly that: single-run readings of multiplexed events carry extra
// noise that averages out as 1/√runs.
package perfctr

import (
	"fmt"
	"math"

	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// Metric identifies one of the 14 collected feature metrics.
type Metric int

// The feature metrics, in the fixed order used by feature vectors.
// The first eight come from the dstat-style resource monitor, the last
// six from the PMU.
const (
	CPUUser     Metric = iota // % CPU in user code
	CPUSystem                 // % CPU in kernel code
	CPUIdle                   // % CPU idle (not waiting on I/O)
	CPUIOWait                 // % CPU idle waiting for I/O completion
	IOReadMBps                // disk read bandwidth
	IOWriteMBps               // disk write bandwidth
	MemFootMB                 // minimum resident memory to run
	MemCacheMB                // page-cache bytes not yet written back
	IPC                       // instructions per cycle
	ICacheMPKI                // instruction-cache misses / kilo-instruction
	LLCMPKI                   // last-level-cache misses / kilo-instruction
	BranchMiss                // branch misprediction rate, %
	CtxSwitch                 // context switches per second (thousands)
	PageFaults                // page faults per second (thousands)

	NumMetrics // count sentinel
)

var metricNames = [NumMetrics]string{
	"CPUuser", "CPUsystem", "CPUidle", "CPUiowait",
	"IORead", "IOWrite", "MemFootprint", "MemCache",
	"IPC", "ICacheMPKI", "LLCMPKI", "BranchMiss",
	"CtxSwitch", "PageFaults",
}

// String returns the metric's display name.
func (m Metric) String() string {
	if m < 0 || m >= NumMetrics {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// MetricNames returns the display names of all 14 metrics in order.
func MetricNames() []string {
	out := make([]string, NumMetrics)
	for i := range out {
		out[i] = Metric(i).String()
	}
	return out
}

// pmuMetric reports whether the metric is read from the PMU (and is
// therefore subject to counter multiplexing noise) rather than from the
// OS resource monitor.
func pmuMetric(m Metric) bool { return m >= IPC && m <= BranchMiss }

// Vector is one application's feature vector over the 14 metrics.
type Vector [NumMetrics]float64

// Get returns the value of metric m.
func (v Vector) Get(m Metric) float64 { return v[m] }

// Slice returns the vector as a fresh []float64 for the ML package.
func (v Vector) Slice() []float64 {
	out := make([]float64, NumMetrics)
	copy(out, v[:])
	return out
}

// Select returns only the named metrics, in the given order — used after
// PCA reduces the 14 metrics to the 7 most significant ones.
func (v Vector) Select(ms []Metric) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = v[m]
	}
	return out
}

// ReducedMetrics is the 7-feature subset the paper retains after PCA and
// hierarchical clustering (§3.2): CPUuser, CPUiowait, I/O read, I/O
// write, IPC, memory footprint and LLC MPKI.
func ReducedMetrics() []Metric {
	return []Metric{CPUUser, CPUIOWait, IOReadMBps, IOWriteMBps, IPC, MemFootMB, LLCMPKI}
}

// Telemetry is what the execution model observed about a run; the
// Sampler turns it into the feature metrics a real monitoring stack
// would report.
type Telemetry struct {
	ExecTime    float64 // seconds
	CPUBusyFrac float64 // fraction of allocated-core time doing work
	IOWaitFrac  float64 // fraction of allocated-core time stalled on I/O
	ReadMB      float64 // total bytes read from disk
	WrittenMB   float64 // total bytes written to disk
	EffIPC      float64 // achieved IPC including contention penalties
	EffLLCMPKI  float64 // achieved LLC MPKI including co-runner pressure
	MemFootMB   float64 // resident working set
}

// Sampler is the synthetic measurement stack for one node. HWCounters is
// the number of simultaneously programmable PMU counter slots (4 on the
// study's Atom parts); with 6 PMU-derived metrics, a single run
// multiplexes and the affected readings carry extra noise.
type Sampler struct {
	HWCounters int
	// BaseNoise is the relative 1σ measurement noise on every metric.
	BaseNoise float64
	// MuxNoise is the additional relative 1σ noise on multiplexed PMU
	// metrics in a single run.
	MuxNoise float64

	rng *sim.RNG
}

// NewSampler returns a sampler with the study platform's defaults.
func NewSampler(rng *sim.RNG) *Sampler {
	return &Sampler{HWCounters: 4, BaseNoise: 0.015, MuxNoise: 0.06, rng: rng}
}

// rawPMUEvents is the number of raw hardware events needed to derive the
// four PMU metrics: cycles, instructions, I-cache misses, LLC misses,
// branches, and branch mispredictions.
const rawPMUEvents = 6

// multiplexed reports whether the PMU must time-multiplex to cover all
// raw events in one run (it must on the 4-slot Atom PMU).
func (s *Sampler) multiplexed() bool { return rawPMUEvents > s.HWCounters }

// exact builds the noise-free feature vector for a run into v. The
// functions below write vectors in place: returned, a vector is copied
// at every return.
func exact(v *Vector, p *workloads.Profile, t *Telemetry) {
	*v = Vector{}
	v[CPUUser] = 100 * t.CPUBusyFrac
	v[CPUSystem] = 100 * 0.12 * t.CPUBusyFrac // kernel share of busy time
	v[CPUIOWait] = 100 * t.IOWaitFrac
	idle := 100 - v[CPUUser] - v[CPUSystem] - v[CPUIOWait]
	if idle < 0 {
		idle = 0
	}
	v[CPUIdle] = idle
	if t.ExecTime > 0 {
		v[IOReadMBps] = t.ReadMB / t.ExecTime
		v[IOWriteMBps] = t.WrittenMB / t.ExecTime
	}
	v[MemFootMB] = t.MemFootMB
	// Dirty page cache scales with outstanding writes.
	v[MemCacheMB] = minf(0.25*t.WrittenMB, 1500)
	v[IPC] = t.EffIPC
	v[ICacheMPKI] = p.ICacheMPKI
	v[LLCMPKI] = t.EffLLCMPKI
	v[BranchMiss] = p.BranchMissPct
	// Context switches track I/O interleaving; page faults track memory
	// footprint churn. Reported in thousands/second.
	v[CtxSwitch] = 0.8 + 6*t.IOWaitFrac
	v[PageFaults] = 0.3 + t.MemFootMB/500
}

// Measure returns the feature vector for one run, with measurement noise
// and single-run PMU multiplexing error applied.
func (s *Sampler) Measure(p workloads.Profile, t Telemetry) (v Vector) {
	s.measure(&v, &p, &t, 1)
	return v
}

// MeasureAveraged models the paper's methodology of running a workload
// `runs` times and averaging the multiplexed counter readings; noise on
// PMU metrics shrinks as 1/√runs.
func (s *Sampler) MeasureAveraged(p workloads.Profile, t Telemetry, runs int) (v Vector) {
	s.MeasureAveragedInto(&v, &p, &t, runs)
	return v
}

// MeasureAveragedInto is MeasureAveraged into v.
func (s *Sampler) MeasureAveragedInto(v *Vector, p *workloads.Profile, t *Telemetry, runs int) {
	s.measure(v, p, t, max(runs, 1))
}

// ExactInto is Exact into v: the first half of MeasureAveragedInto,
// whose second half is NoiseInto.
func ExactInto(v *Vector, p *workloads.Profile, t *Telemetry) { exact(v, p, t) }

// NoiseInto applies MeasureAveraged's measurement noise for `runs` runs
// to the exact vector v in place, with the same draws in the same
// order: ExactInto then NoiseInto is MeasureAveragedInto, bit for bit.
func (s *Sampler) NoiseInto(v *Vector, runs int) { s.noise(v, max(runs, 1)) }

func (s *Sampler) measure(v *Vector, p *workloads.Profile, t *Telemetry, runs int) {
	exact(v, p, t)
	s.noise(v, runs)
}

// noise is measure's second half: one jittered reading per metric, in
// metric order, then the percentage clamps.
func (s *Sampler) noise(v *Vector, runs int) {
	scale := 1.0 / math.Sqrt(float64(runs))
	for m := Metric(0); m < NumMetrics; m++ {
		rel := s.BaseNoise
		if pmuMetric(m) && s.multiplexed() {
			rel += s.MuxNoise
		}
		v[m] = s.rng.Jitter(v[m], rel*scale)
		if v[m] < 0 {
			v[m] = 0
		}
	}
	// Percentages stay percentages.
	for _, m := range []Metric{CPUUser, CPUSystem, CPUIdle, CPUIOWait} {
		if v[m] > 100 {
			v[m] = 100
		}
	}
}

// Exact returns the noise-free vector (the asymptote of infinitely many
// averaged runs) — used by tests and by the model-fidelity experiments.
func Exact(p workloads.Profile, t Telemetry) (v Vector) {
	exact(&v, &p, &t)
	return v
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
