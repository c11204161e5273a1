package mapreduce

import (
	"ecost/internal/cluster"
	"ecost/internal/perfctr"
	"ecost/internal/power"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// RunSpec is one application's placement on a node: what it runs, how
// much data it processes on this node, and its tuning configuration.
// App points at the application rather than copying it: usually a
// table entry (workloads.ID.App), which the spec must not modify.
type RunSpec struct {
	App    *workloads.App
	DataMB float64
	Cfg    Config
}

// Outcome is the model's prediction for one application's run.
type Outcome struct {
	// Time is the application's completion time in seconds (for a
	// co-located run, measured from the co-located start).
	Time float64
	// MapTime and ReduceTime break the job into its phases (under the
	// initial contention conditions).
	MapTime    float64
	ReduceTime float64

	// CPUUtil is the average busy fraction of the application's
	// allocated cores; IOWaitFrac the fraction stalled on I/O.
	CPUUtil    float64
	IOWaitFrac float64

	// ReadMB / WrittenMB are total disk traffic over the job.
	ReadMB    float64
	WrittenMB float64

	// EffIPC / EffLLCMPKI are the achieved counter values including
	// co-runner contention — what `perf` would report.
	EffIPC     float64
	EffLLCMPKI float64

	// MemMB is the resident working set (tasks + buffers).
	MemMB float64

	// Waves / Splits record the map-phase shape for diagnostics.
	Waves  int
	Splits int
}

// Telemetry converts the outcome into the measurement substrate's input.
func (o Outcome) Telemetry() perfctr.Telemetry {
	return perfctr.Telemetry{
		ExecTime:    o.Time,
		CPUBusyFrac: o.CPUUtil,
		IOWaitFrac:  o.IOWaitFrac,
		ReadMB:      o.ReadMB,
		WrittenMB:   o.WrittenMB,
		EffIPC:      o.EffIPC,
		EffLLCMPKI:  o.EffLLCMPKI,
		MemFootMB:   o.MemMB,
	}
}

// CoOutcome is the node-level result of running one or more applications
// together on a node: the paper's unit of EDP accounting.
type CoOutcome struct {
	Apps     []Outcome // aligned with the input specs
	Makespan float64   // seconds until the last application finishes
	EnergyJ  float64   // whole-node energy over the makespan
	AvgPower float64   // EnergyJ / Makespan
	EDP      float64   // EnergyJ × Makespan
}

// Model predicts MapReduce execution on one node. The zero value is not
// usable; construct with NewModel. All knobs are exported so ablation
// experiments can perturb them.
type Model struct {
	Spec cluster.NodeSpec

	// TaskStartupSec is the per-task constant cost (JVM spawn, task init).
	TaskStartupSec float64
	// JobOverheadSec is the per-job setup/teardown cost.
	JobOverheadSec float64
	// MemLatencyNs is the DRAM access latency; the LLC-miss CPI penalty is
	// MPKI/1000 × MemLatencyNs × f, which is what makes memory-bound
	// applications insensitive to DVFS.
	MemLatencyNs float64
	// OverlapFrac is how much of a task's I/O hides under its compute.
	OverlapFrac float64
	// LLCMB is the shared last-level cache size.
	LLCMB float64
	// LLCBeta scales co-runner LLC MPKI inflation:
	// mpki' = mpki·(1 + LLCBeta·fp/(fp+LLCMB)).
	LLCBeta float64
	// MemCapFrac is the usable fraction of node memory before the model
	// charges a thrashing penalty.
	MemCapFrac float64
	// ThrashK scales the extra I/O charged per unit of memory
	// over-subscription.
	ThrashK float64
	// BufFracOfBlock is the per-mapper sort-buffer charge as a fraction
	// of the block size (io.sort.mb scaled with the split).
	BufFracOfBlock float64
	// SeekPenalty scales the loss of effective disk bandwidth as more
	// distinct jobs interleave bursty streams on one disk:
	// bw_eff = bw/(1+SeekPenalty·(jobs−1)²). This convex penalty is why
	// co-locating beyond two applications degrades EDP (§4.2).
	SeekPenalty float64
	// JobMemMB is the fixed per-job resident overhead (framework daemons,
	// job client, JVM heaps) independent of the mapper count.
	JobMemMB float64

	// Noise, when positive, applies relative run-to-run jitter to times
	// and power using rng; leave zero for the deterministic oracle runs.
	Noise float64
	rng   *sim.RNG
}

// NewModel returns the calibrated model for the given node spec.
func NewModel(spec cluster.NodeSpec) *Model {
	return &Model{
		Spec:           spec,
		TaskStartupSec: 3.0,
		JobOverheadSec: 6.0,
		MemLatencyNs:   80,
		OverlapFrac:    0.65,
		LLCMB:          4,
		LLCBeta:        0.30,
		MemCapFrac:     0.85,
		ThrashK:        2.0,
		BufFracOfBlock: 0.6,
		SeekPenalty:    0.06,
		JobMemMB:       400,
	}
}

// WithNoise returns a copy of the model that jitters results with the
// given relative σ, seeded from rng. Used by the "measured run"
// experiments; the oracle searches use the noise-free model.
func (m *Model) WithNoise(rel float64, rng *sim.RNG) *Model {
	c := *m
	c.Noise = rel
	c.rng = rng
	return &c
}

// steady holds one application's behaviour while a fixed set of
// applications co-runs.
type steady struct {
	T          float64 // full-job time under this contention
	mapTime    float64
	redTime    float64
	util       float64 // avg CPU busy fraction of allocated cores
	iowait     float64
	readMB     float64
	writeMB    float64
	ipc        float64
	mpki       float64
	memMB      float64
	ioRateMBps float64 // achieved average disk throughput
	splits     int
	waves      int
}

// CoLocate predicts the node-level outcome of running the given
// applications together. Mapper counts must fit the node's cores. As
// applications finish, the survivors speed up (contention relaxes); the
// model handles this with a fluid epoch simulation over the steady
// states of each remaining active set.
func (m *Model) CoLocate(specs []RunSpec) (CoOutcome, error) {
	var s evalScratch
	return m.coLocateInto(specs, &s, make([]Outcome, len(specs)))
}

// Solo predicts a single application running alone on the node.
func (m *Model) Solo(spec RunSpec) (Outcome, CoOutcome, error) {
	co, err := m.CoLocate([]RunSpec{spec})
	if err != nil {
		return Outcome{}, CoOutcome{}, err
	}
	return co.Apps[0], co, nil
}

// Pair predicts two applications co-located on the node.
func (m *Model) Pair(a, b RunSpec) (CoOutcome, error) {
	return m.CoLocate([]RunSpec{a, b})
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

// SteadyState is the exported per-application view of the contention
// solver, for online schedulers that manage job progress across
// arrival/completion events themselves (internal/core's online mode).
type SteadyState struct {
	// JobTime is the application's full-job time if the current set ran
	// unchanged throughout.
	JobTime float64
	// CPUUtil and IOWait describe the application's cores.
	CPUUtil float64
	IOWait  float64
	// MapTime and ReduceTime split JobTime at the phase boundary under
	// this contention — the split the span tracer uses to place the
	// map → shuffle/reduce transition on a job's timeline.
	MapTime    float64
	ReduceTime float64
}

// Steady solves the contention among the given co-running applications
// and returns each one's steady state plus the whole-node power draw
// while this set runs. It is Evaluator.Steady over a one-shot evaluator
// with the states copied out; callers that solve repeatedly hold an
// Evaluator instead.
func (m *Model) Steady(specs []RunSpec) ([]SteadyState, float64, error) {
	sts, watts, err := m.NewEvaluator().Steady(specs)
	return append([]SteadyState(nil), sts...), watts, err
}

// IdlePower returns the node's idle draw — what an empty node burns.
func (m *Model) IdlePower() float64 {
	return power.NodePower(m.Spec, power.Activity{})
}
