package mapreduce

import (
	"fmt"
	"math"
	"slices"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
	"ecost/internal/power"
)

// This file is the allocation-free core of the execution model. The
// public entry points (CoLocate, Solo, Pair, Steady) are thin wrappers
// that allocate a fresh scratch per call; the hot paths — the COLAO
// brute-force search and the MLM-STP argmin sweeps, which evaluate the
// same application pair at thousands of configurations, and the online
// scheduler's profiling runs and per-event steady solves — hold an
// Evaluator so the contention solver's working buffers are allocated
// once and reused.
//
// Every routine here computes the exact floating-point sequence of the
// original serial implementation: buffer reuse changes where
// intermediate values live, never what they are, so batched results are
// bit-identical to CoLocate's. The solo and pair paths go further and
// skip work whose result is already known — the first epoch's repeat
// of the initial solve, a lone app's loop-invariant fixed-point terms,
// and each app's burst-independent terms in a two-app fixed point —
// but every value they keep is computed by the same operations in the
// same order. The pair path's one substitution, an inline compare for
// math.Max and math.Min, runs only where both operands are positive,
// where the two agree bit for bit; elsewhere it falls back to the full
// loop.

// ioPhase is one MapReduce phase's per-task demand: CPU seconds and
// disk traffic.
type ioPhase struct{ cpu, ioMB float64 }

// evalScratch holds the contention solver's working buffers, sized for
// the largest co-located set seen so far.
type evalScratch struct {
	n        int // current capacity (co-located set size)
	steadies []steady
	mpki     []float64
	rate     []float64
	splitMB  []float64
	cpi      []float64
	rem      []float64
	mapPh    []ioPhase
	redPh    []ioPhase
	splits   []int
	sub      []RunSpec
	idx      []int
	active   []bool
	subActv  []bool
	loads    []power.CoreLoad
	// tails, when non-nil, memoizes the pair's solo tails; PairBatch
	// sets it for the length of one call.
	tails *soloTails
}

func (s *evalScratch) ensure(n int) {
	if n <= s.n {
		return
	}
	s.n = n
	s.steadies = make([]steady, n)
	s.mpki = make([]float64, n)
	s.rate = make([]float64, n)
	s.splitMB = make([]float64, n)
	s.cpi = make([]float64, n)
	s.rem = make([]float64, n)
	s.mapPh = make([]ioPhase, n)
	s.redPh = make([]ioPhase, n)
	s.splits = make([]int, n)
	s.sub = make([]RunSpec, 0, n)
	s.idx = make([]int, 0, n)
	s.active = make([]bool, n)
	s.subActv = make([]bool, n)
	s.loads = make([]power.CoreLoad, 0, n)
}

// taskTime is the per-task duration of one phase given the app's burst
// bandwidth: the I/O hides under compute up to OverlapFrac.
func (m *Model) taskTime(mappers float64, ph ioPhase, burstBW float64) (t, tio float64) {
	tio = mappers * ph.ioMB / burstBW // m concurrent tasks share the app's burst bandwidth
	t = math.Max(ph.cpu, tio) + (1-m.OverlapFrac)*math.Min(ph.cpu, tio) + m.TaskStartupSec
	return t, tio
}

// evaluateInto is evaluate with caller-owned buffers; the returned slice
// aliases s.steadies and is valid until the next call with the same
// scratch.
func (m *Model) evaluateInto(specs []RunSpec, s *evalScratch) []steady {
	n := len(specs)
	s.ensure(n)
	out := s.steadies[:n]
	if n == 0 {
		return out
	}
	// Interleaving distinct jobs' bursty streams costs seeks.
	bw := m.Spec.DiskBWMBps / (1 + m.SeekPenalty*float64((n-1)*(n-1)))

	// Memory pressure is set-wide: per-job fixed overhead plus mappers'
	// buffers and working sets.
	var memTotal float64
	for i := range specs {
		sp := &specs[i]
		perTask := m.BufFracOfBlock*float64(sp.Cfg.Block) + sp.App.Profile.MemFootprintMBPerTask
		memTotal += m.JobMemMB + float64(sp.Cfg.Mappers)*perTask
	}
	memCap := m.MemCapFrac * m.Spec.MemGB * 1024
	thrash := 0.0
	if memTotal > memCap {
		thrash = m.ThrashK * (memTotal/memCap - 1)
	}

	// Memory-bandwidth pressure scales the LLC miss latency (queueing).
	var bwDemand float64
	for i := range specs {
		sp := &specs[i]
		bwDemand += float64(sp.Cfg.Mappers) * sp.App.Profile.MemBWPerCoreGBps
	}
	bwScale := 1.0
	if m.Spec.MemBWGBps > 0 && bwDemand > m.Spec.MemBWGBps {
		bwScale = bwDemand / m.Spec.MemBWGBps
	}

	// Co-runner LLC pressure inflates each app's MPKI (saturating). The
	// pressure is app-level rather than per-mapper: a job's tasks share
	// most of their working set (dictionaries, model state), so adding
	// mappers of the same job barely grows its LLC footprint.
	mpki := s.mpki[:n]
	for i := range specs {
		sp := &specs[i]
		var otherFP float64
		for j := range specs {
			if j != i {
				otherFP += specs[j].App.Profile.CacheFootprintMB
			}
		}
		infl := 1 + m.LLCBeta*otherFP/(otherFP+m.LLCMB)
		mpki[i] = sp.App.Profile.LLCMPKI * infl
	}

	// Damped fixed point on achieved disk rates.
	rate := s.rate[:n] // achieved MB/s per app
	mapPh := s.mapPh[:n]
	redPh := s.redPh[:n]
	splitMB := s.splitMB[:n]
	splits := s.splits[:n]
	cpi := s.cpi[:n]
	for i := range rate {
		rate[i] = 0
	}
	for i := range specs {
		sp := &specs[i]
		p := &sp.App.Profile
		f := float64(sp.Cfg.Freq)
		cpi[i] = 1/p.BaseIPC + mpki[i]/1000*m.MemLatencyNs*f*bwScale
		splits[i] = hdfs.Splits(sp.DataMB, sp.Cfg.Block)
		if splits[i] == 0 {
			continue
		}
		splitMB[i] = sp.DataMB / float64(splits[i])
		mapPh[i] = ioPhase{
			cpu:  p.MapInstrPerByte * splitMB[i] * 1e6 * cpi[i] / (f * 1e9),
			ioMB: splitMB[i] * (1 + p.SpillFactor) * (1 + thrash),
		}
		interMB := sp.DataMB * p.ShuffleSel
		outMB := sp.DataMB * p.OutputSel
		r := float64(sp.Cfg.Mappers) // reducers = mapper slots
		redPh[i] = ioPhase{
			cpu:  p.ReduceInstrPerByte * interMB / r * 1e6 * cpi[i] / (f * 1e9),
			ioMB: (interMB + outMB) / r * (1 + thrash),
		}
	}

	if r, ok := m.soloRate(specs, mapPh, redPh, splits, bw); ok {
		rate[0] = r
	} else if r0, r1, ok := m.pairRates(specs, mapPh, redPh, splits, bw); ok {
		rate[0], rate[1] = r0, r1
	} else {
		m.dampRates(specs, mapPh, redPh, splits, bw, rate)
	}

	var sumRates float64
	for _, r := range rate {
		sumRates += r
	}

	for i := range specs {
		sp := &specs[i]
		if splits[i] == 0 {
			out[i] = steady{T: m.JobOverheadSec}
			continue
		}
		p := &sp.App.Profile
		burst := burstBW(p.DiskDutyCap, bw, sumRates-rate[i])
		tMap, tioMap := m.taskTime(float64(sp.Cfg.Mappers), mapPh[i], burst)
		tRed, tioRed := m.taskTime(float64(sp.Cfg.Mappers), redPh[i], burst)
		waves := (splits[i] + sp.Cfg.Mappers - 1) / sp.Cfg.Mappers
		mapTime := float64(waves) * tMap
		T := m.JobOverheadSec + mapTime + tRed

		// Busy fraction of the app's cores, time-weighted over phases.
		uMap := mapPh[i].cpu / tMap
		uRed := redPh[i].cpu / tRed
		util := (uMap*mapTime + uRed*tRed) / (mapTime + tRed)
		wMap := math.Max(0, tioMap-m.OverlapFrac*mapPh[i].cpu) / tMap
		wRed := math.Max(0, tioRed-m.OverlapFrac*redPh[i].cpu) / tRed
		iowait := (wMap*mapTime + wRed*tRed) / (mapTime + tRed)

		interMB := sp.DataMB * p.ShuffleSel
		outMB := sp.DataMB * p.OutputSel
		// Field by field, where a literal would be built aside and copied.
		o := &out[i]
		o.T, o.mapTime, o.redTime = T, mapTime, tRed
		o.util, o.iowait = clamp01(util), clamp01(iowait)
		o.readMB, o.writeMB = sp.DataMB+interMB, sp.DataMB*p.SpillFactor+interMB+outMB
		o.ipc, o.mpki = 1/cpi[i], mpki[i]
		o.memMB = float64(sp.Cfg.Mappers) * (m.BufFracOfBlock*float64(sp.Cfg.Block) + p.MemFootprintMBPerTask)
		o.ioRateMBps, o.splits, o.waves = rate[i], splits[i], waves
	}
	return out
}

// fixedPointIters is the damped fixed point's step count.
const fixedPointIters = 8

// dampRates runs the damped fixed point on achieved disk rates: each
// step moves every app halfway to the rate its phases would drive if
// the others held their current rates. rate enters zeroed.
func (m *Model) dampRates(specs []RunSpec, mapPh, redPh []ioPhase, splits []int, bw float64, rate []float64) {
	for iter := 0; iter < fixedPointIters; iter++ {
		var sumRates float64
		for _, r := range rate {
			sumRates += r
		}
		for i := range specs {
			if splits[i] == 0 {
				continue
			}
			burst := burstBW(specs[i].App.Profile.DiskDutyCap, bw, sumRates-rate[i])
			newRate := m.targetRate(&specs[i], mapPh[i], redPh[i], splits[i], burst)
			rate[i] = 0.5*rate[i] + 0.5*newRate
		}
	}
}

// soloRate is dampRates for a lone application on a scalar, and false
// for any other set (DESIGN.md §32). Alone, the others' rate — the sum
// of rates less the app's own — is r − r = +0 at every step while the
// app's rate r is finite, so its burst bandwidth, task times and target
// rate are loop invariants: computed once, then stepped exactly as
// dampRates steps them. A non-finite target makes r non-finite after
// the first step, r − r NaN and the burst no longer invariant; soloRate
// then reports false and the caller runs the full loop.
func (m *Model) soloRate(specs []RunSpec, mapPh, redPh []ioPhase, splits []int, bw float64) (float64, bool) {
	if len(specs) != 1 {
		return 0, false
	}
	if splits[0] == 0 {
		return 0, true
	}
	sp := &specs[0]
	burst := burstBW(sp.App.Profile.DiskDutyCap, bw, 0)
	newRate := m.targetRate(sp, mapPh[0], redPh[0], splits[0], burst)
	if math.IsNaN(newRate) || math.IsInf(newRate, 0) {
		return 0, false
	}
	rate := 0.0
	for iter := 0; iter < fixedPointIters; iter++ {
		rate = 0.5*rate + 0.5*newRate
	}
	return rate, true
}

// pairLane is one application's loop invariants in the two-app fixed
// point: every term of targetRate that does not depend on the burst
// bandwidth.
type pairLane struct {
	duty           float64 // DiskDutyCap
	mapCPU, redCPU float64 // per-task CPU seconds
	mapIO, redIO   float64 // mappers × per-task MB: taskTime's numerator
	waves          float64
	traffic        float64 // the job's MB: targetRate's numerator
}

// target is targetRate at the given burst for the lane's app, with the
// same operations in the same order, and false unless both phases'
// I/O times are positive: then every max/min operand is positive (the
// CPU times were checked when the lane was built), and an inline
// compare agrees with math.Max and math.Min bit for bit. Those differ
// only on a NaN or on zeros of opposite sign.
func (l *pairLane) target(burst, keep, startup float64) (float64, bool) {
	tioMap := l.mapIO / burst
	tioRed := l.redIO / burst
	if !(tioMap > 0 && tioRed > 0) {
		return 0, false
	}
	hi, lo := l.mapCPU, tioMap
	if lo > hi {
		hi, lo = lo, hi
	}
	tMap := hi + keep*lo + startup
	hi, lo = l.redCPU, tioRed
	if lo > hi {
		hi, lo = lo, hi
	}
	tRed := hi + keep*lo + startup
	return l.traffic / (l.waves*tMap + tRed), true
}

// pairRates is dampRates for two applications that both have splits,
// with each app's loop invariants hoisted into a pairLane (DESIGN.md
// §34), and false for any other set. Each step sums the rates as
// dampRates does, (0 + r0) + r1, and moves both apps from the rates
// that entered it. It reports false when a CPU time is not positive
// and finite, when a step's I/O time is not positive, or when a rate
// ends non-finite; the caller then runs dampRates.
func (m *Model) pairRates(specs []RunSpec, mapPh, redPh []ioPhase, splits []int, bw float64) (r0, r1 float64, ok bool) {
	if len(specs) != 2 || splits[0] == 0 || splits[1] == 0 {
		return 0, 0, false
	}
	var lanes [2]pairLane
	for i := range lanes {
		sp := &specs[i]
		if !(mapPh[i].cpu > 0 && finite(mapPh[i].cpu) && redPh[i].cpu > 0 && finite(redPh[i].cpu)) {
			return 0, 0, false
		}
		mi := float64(sp.Cfg.Mappers)
		lanes[i] = pairLane{
			duty:    sp.App.Profile.DiskDutyCap,
			mapCPU:  mapPh[i].cpu,
			redCPU:  redPh[i].cpu,
			mapIO:   mi * mapPh[i].ioMB,
			redIO:   mi * redPh[i].ioMB,
			waves:   float64((splits[i] + sp.Cfg.Mappers - 1) / sp.Cfg.Mappers),
			traffic: float64(splits[i])*mapPh[i].ioMB + mi*redPh[i].ioMB,
		}
	}
	keep, startup := 1-m.OverlapFrac, m.TaskStartupSec
	a, b := &lanes[0], &lanes[1]
	for iter := 0; iter < fixedPointIters; iter++ {
		sum := 0 + r0
		sum += r1
		n0, ok0 := a.target(burstBW(a.duty, bw, sum-r0), keep, startup)
		n1, ok1 := b.target(burstBW(b.duty, bw, sum-r1), keep, startup)
		if !(ok0 && ok1) {
			return 0, 0, false
		}
		r0 = 0.5*r0 + 0.5*n0
		r1 = 0.5*r1 + 0.5*n1
	}
	if !finite(r0) || !finite(r1) {
		return 0, 0, false
	}
	return r0, r1, true
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// burstBW is an app's burst disk bandwidth while the others achieve
// `others` MB/s: its duty-cycle cap, but never more than is left, and
// never less than a tenth of the disk.
func burstBW(duty, bw, others float64) float64 {
	avail := bw - others
	if avail < 0.1*bw {
		avail = 0.1 * bw
	}
	burst := duty * bw
	if burst > avail {
		burst = avail
	}
	return burst
}

// targetRate is the average disk rate an app's phases drive at the
// given burst bandwidth: its whole job's traffic over its task time.
func (m *Model) targetRate(sp *RunSpec, mapPh, redPh ioPhase, splits int, burst float64) float64 {
	tMap, _ := m.taskTime(float64(sp.Cfg.Mappers), mapPh, burst)
	tRed, _ := m.taskTime(float64(sp.Cfg.Mappers), redPh, burst)
	waves := (splits + sp.Cfg.Mappers - 1) / sp.Cfg.Mappers
	mapTime := float64(waves) * tMap
	total := mapTime + tRed
	mi := float64(sp.Cfg.Mappers)
	return (float64(splits)*mapPh.ioMB + mi*redPh.ioMB) / total
}

// activityInto is activity with a caller-owned loads buffer.
func (m *Model) activityInto(specs []RunSpec, sts []steady, active []bool, s *evalScratch) power.Activity {
	act := power.Activity{Loads: s.loads[:0]}
	var io, membw float64
	for i := range specs {
		sp := &specs[i]
		if !active[i] {
			continue
		}
		act.Loads = append(act.Loads, power.CoreLoad{
			Cores: sp.Cfg.Mappers,
			Freq:  sp.Cfg.Freq,
			Util:  sts[i].util,
		})
		io += sts[i].ioRateMBps
		membw += float64(sp.Cfg.Mappers) * sp.App.Profile.MemBWPerCoreGBps * sts[i].util
	}
	act.DiskBusy = io / m.Spec.DiskBWMBps
	act.MemBWGB = membw
	return act
}

// epochWatts is the node's draw while every app of specs runs at its
// steady state sts.
func (m *Model) epochWatts(specs []RunSpec, sts []steady, s *evalScratch) float64 {
	active := s.subActv[:len(specs)]
	for k := range active {
		active[k] = true
	}
	return power.NodePower(m.Spec, m.activityInto(specs, sts, active, s))
}

// soloTails memoizes a pair's solo tails within one PairBatch call
// (DESIGN.md §40). Once the first app of a pair finishes, coLocateInto
// solves the survivor alone, and that solve's job time and node draw
// depend only on the survivor's spec. A call holds each side's
// application and data size fixed, so the table is dense over side ×
// frequency × block × mappers, and it is reset on every call: the
// model's knobs are read afresh each time, as everywhere else.
type soloTails struct {
	cores   int
	freqs   []cluster.FreqGHz
	blocks  []hdfs.BlockMB
	entries []soloTail
	one     [1]steady // the tail's solve, as the epoch loop reads it
}

// soloTail is one survivor's job time and the node's draw while it
// runs alone; ok marks a filled entry.
type soloTail struct {
	T, watts float64
	ok       bool
}

// reset empties the table for a call on a node with the given cores.
func (t *soloTails) reset(cores int) {
	if t.freqs == nil {
		t.freqs, t.blocks = cluster.Frequencies(), hdfs.BlockSizes()
	}
	n := 2 * len(t.freqs) * len(t.blocks) * cores
	if t.cores != cores || len(t.entries) != n {
		t.cores, t.entries = cores, make([]soloTail, n)
		return
	}
	clear(t.entries)
}

// solve is the epoch solve of sub, the lone survivor of side: the
// table's entry when filled, else evaluateInto and epochWatts, stored.
// Only the job time of the returned steady state is set; it is all the
// epoch loop reads once the per-app outcomes are taken. coLocateInto
// validated the configuration, so it lies on the table's grid.
func (t *soloTails) solve(m *Model, side int, sub []RunSpec, s *evalScratch) ([]steady, float64) {
	cfg := &sub[0].Cfg
	f := slices.Index(t.freqs, cfg.Freq)
	b := slices.Index(t.blocks, cfg.Block)
	e := &t.entries[((side*len(t.freqs)+f)*len(t.blocks)+b)*t.cores+cfg.Mappers-1]
	if !e.ok {
		sts := m.evaluateInto(sub, s)
		e.T, e.watts, e.ok = sts[0].T, m.epochWatts(sub, sts, s), true
	}
	t.one[0] = steady{T: e.T}
	return t.one[:], e.watts
}

// coLocateInto is CoLocate with caller-owned buffers. apps, when
// non-nil, must have len(specs) elements and receives the per-app
// outcomes; a nil apps skips the initial-contention evaluation and the
// per-app bookkeeping entirely (the node-level energy/makespan math is
// unaffected — the epoch loop is the only thing that feeds it).
func (m *Model) coLocateInto(specs []RunSpec, s *evalScratch, apps []Outcome) (CoOutcome, error) {
	if len(specs) == 0 {
		return CoOutcome{}, fmt.Errorf("mapreduce: co-locate: no applications")
	}
	total := 0
	for i := range specs {
		sp := &specs[i]
		if err := sp.Cfg.Validate(m.Spec.Cores); err != nil {
			return CoOutcome{}, err
		}
		if sp.DataMB < 0 {
			return CoOutcome{}, fmt.Errorf("mapreduce: co-locate %s: negative data size", sp.App.Name)
		}
		total += sp.Cfg.Mappers
	}
	if total > m.Spec.Cores {
		return CoOutcome{}, fmt.Errorf("mapreduce: co-locate: %d mappers exceed %d cores", total, m.Spec.Cores)
	}

	n := len(specs)
	s.ensure(n)
	co := CoOutcome{Apps: apps}
	active := s.active[:n]
	rem := s.rem[:n]
	idx := s.idx[:n]
	for i := range specs {
		active[i] = true
		rem[i] = 1
		idx[i] = i
	}
	// The first epoch runs the whole set, so its solve is the initial
	// contention the per-app outcomes report; later epochs re-solve
	// only after an app finishes. A solve fixes the node's draw until
	// the next one.
	sub := specs
	sts := m.evaluateInto(specs, s)
	if apps != nil {
		for i := range sts {
			st, o := &sts[i], &apps[i] // field by field, as in evaluateInto
			o.Time, o.MapTime, o.ReduceTime = 0, st.mapTime, st.redTime
			o.CPUUtil, o.IOWaitFrac, o.ReadMB, o.WrittenMB = st.util, st.iowait, st.readMB, st.writeMB
			o.EffIPC, o.EffLLCMPKI, o.MemMB = st.ipc, st.mpki, st.memMB
			o.Waves, o.Splits = st.waves, st.splits
		}
	}

	watts := m.epochWatts(specs, sts, s)

	now := 0.0
	remaining := n
	for stale := false; remaining > 0; {
		if stale {
			sub, idx = s.sub[:0], s.idx[:0]
			for i, a := range active {
				if a {
					sub = append(sub, specs[i])
					idx = append(idx, i)
				}
			}
			if len(sub) == 1 && s.tails != nil {
				sts, watts = s.tails.solve(m, idx[0], sub, s)
			} else {
				sts = m.evaluateInto(sub, s)
				watts = m.epochWatts(sub, sts, s)
			}
			stale = false
		}
		// Epoch ends when the first active app finishes.
		dt := math.Inf(1)
		for k, i := range idx {
			if t := rem[i] * sts[k].T; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) || dt < 0 {
			return CoOutcome{}, fmt.Errorf("mapreduce: co-locate: non-finite epoch")
		}
		co.EnergyJ += watts * dt
		now += dt
		for k, i := range idx {
			rem[i] -= dt / sts[k].T
			if rem[i] <= 1e-9 {
				rem[i] = 0
				active[i] = false
				if apps != nil {
					apps[i].Time = now
				}
				remaining--
				stale = true
			}
		}
	}
	co.Makespan = now
	if m.Noise > 0 && m.rng != nil {
		co.Makespan = m.rng.Jitter(co.Makespan, m.Noise)
		co.EnergyJ = m.rng.Jitter(co.EnergyJ, m.Noise)
		for i := range co.Apps {
			co.Apps[i].Time = m.rng.Jitter(co.Apps[i].Time, m.Noise)
		}
	}
	if co.Makespan > 0 {
		co.AvgPower = co.EnergyJ / co.Makespan
	}
	co.EDP = power.EDP(co.EnergyJ, co.Makespan)
	return co, nil
}

// CoMetrics is the node-level scalar outcome of a co-located run — what
// the brute-force searches and training-row sweeps actually consume.
type CoMetrics struct {
	Makespan float64
	EnergyJ  float64
	AvgPower float64
	EDP      float64
}

// Metrics projects a full outcome onto its node-level scalars.
func (co CoOutcome) Metrics() CoMetrics {
	return CoMetrics{Makespan: co.Makespan, EnergyJ: co.EnergyJ, AvgPower: co.AvgPower, EDP: co.EDP}
}

// Evaluator amortizes the contention solver's allocations across
// repeated evaluations of (usually) the same application pair at many
// configurations. It is NOT goroutine-safe: concurrent sweeps hold one
// Evaluator per worker.
type Evaluator struct {
	m      *Model
	s      evalScratch
	specs  [2]RunSpec
	apps   []Outcome // per-app outcomes for the noisy-model Metrics fallback
	states []SteadyState
	tails  soloTails // PairBatch's solo tails
}

// NewEvaluator returns a reusable evaluator over the model. The
// evaluator reads the model's knobs on every call, so knob changes
// between calls behave exactly as they do with CoLocate.
func (m *Model) NewEvaluator() *Evaluator { return &Evaluator{m: m} }

// PairMetrics evaluates a pair and returns only the node-level scalars,
// allocation-free after warm-up. The result is bit-identical to
// Model.Pair(a, b).Metrics().
func (e *Evaluator) PairMetrics(a, b RunSpec) (CoMetrics, error) {
	e.specs[0], e.specs[1] = a, b
	var apps []Outcome
	if e.m.Noise > 0 {
		// The noisy model draws jitter for per-app times too; keep the
		// RNG stream identical to the full path.
		if cap(e.apps) < 2 {
			e.apps = make([]Outcome, 2)
		}
		apps = e.apps[:2]
	}
	co, err := e.m.coLocateInto(e.specs[:], &e.s, apps)
	if err != nil {
		return CoMetrics{}, err
	}
	return co.Metrics(), nil
}

// Solo is Model.Solo's co-outcome with buffer reuse; the returned
// outcome's Apps slice is freshly allocated and safe to retain.
func (e *Evaluator) Solo(spec RunSpec) (CoOutcome, error) {
	e.specs[0] = spec
	return e.m.coLocateInto(e.specs[:1], &e.s, make([]Outcome, 1))
}

// SoloMetrics evaluates one application alone and returns only the
// node-level scalars, allocation-free after warm-up.
func (e *Evaluator) SoloMetrics(spec RunSpec) (CoMetrics, error) {
	e.specs[0] = spec
	var apps []Outcome
	if e.m.Noise > 0 {
		if cap(e.apps) < 1 {
			e.apps = make([]Outcome, 2)
		}
		apps = e.apps[:1]
	}
	co, err := e.m.coLocateInto(e.specs[:1], &e.s, apps)
	if err != nil {
		return CoMetrics{}, err
	}
	return co.Metrics(), nil
}

// SoloApp is Model.Solo's per-application outcome with buffer reuse,
// allocation-free after warm-up. A lone app finishes in coLocateInto's
// first epoch, so its outcome is that epoch's one solve, with neither
// the node's draw nor the epoch loop: the same validation in the same
// order (with one app, Validate's mapper bound is coLocateInto's core
// check), the same non-finite epoch check, and Time = 0 + dt. On a noisy
// model it draws the same jitter sequence Solo does: the makespan and
// energy jitters, which it discards, then Time's.
func (e *Evaluator) SoloApp(spec RunSpec) (Outcome, error) {
	m := e.m
	if err := spec.Cfg.Validate(m.Spec.Cores); err != nil {
		return Outcome{}, err
	}
	if spec.DataMB < 0 {
		return Outcome{}, fmt.Errorf("mapreduce: co-locate %s: negative data size", spec.App.Name)
	}
	e.specs[0] = spec
	st := &m.evaluateInto(e.specs[:1], &e.s)[0]
	// The epoch ends when the app does, at rem × T with rem = 1, kept
	// only below +Inf, as coLocateInto's minimum keeps it. The app's
	// remainder after it, 1 − dt/T, is 0 unless T is 0; then it is NaN,
	// and coLocateInto's next epoch is the non-finite one.
	dt := math.Inf(1)
	if t := 1 * st.T; t < dt {
		dt = t
	}
	if math.IsInf(dt, 1) || dt < 0 || !(1-dt/st.T <= 1e-9) {
		return Outcome{}, fmt.Errorf("mapreduce: co-locate: non-finite epoch")
	}
	o := Outcome{ // field by field, as in coLocateInto
		Time: 0 + dt, MapTime: st.mapTime, ReduceTime: st.redTime,
		CPUUtil: st.util, IOWaitFrac: st.iowait, ReadMB: st.readMB, WrittenMB: st.writeMB,
		EffIPC: st.ipc, EffLLCMPKI: st.mpki, MemMB: st.memMB,
		Waves: st.waves, Splits: st.splits,
	}
	if m.Noise > 0 && m.rng != nil {
		m.rng.Jitter(0, m.Noise) // the makespan's draw
		m.rng.Jitter(0, m.Noise) // the energy's draw
		o.Time = m.rng.Jitter(o.Time, m.Noise)
	}
	return o, nil
}

// Steady solves the contention among the given co-running applications
// and returns each one's steady state plus the whole-node power draw
// while this set runs — the online scheduler's per-reschedule solve.
// The returned slice aliases the evaluator's scratch and is valid until
// the next call; after warm-up a solve allocates nothing.
func (e *Evaluator) Steady(specs []RunSpec) ([]SteadyState, float64, error) {
	m := e.m
	if len(specs) == 0 {
		return nil, power.NodePower(m.Spec, power.Activity{}), nil
	}
	total := 0
	for i := range specs {
		cfg := &specs[i].Cfg
		if err := cfg.Validate(m.Spec.Cores); err != nil {
			return nil, 0, err
		}
		total += cfg.Mappers
	}
	if total > m.Spec.Cores {
		return nil, 0, fmt.Errorf("mapreduce: steady: %d mappers exceed %d cores", total, m.Spec.Cores)
	}
	sts := m.evaluateInto(specs, &e.s)
	if cap(e.states) < len(sts) {
		e.states = make([]SteadyState, len(sts))
	}
	out := e.states[:len(sts)]
	for i := range sts {
		st := &sts[i]
		out[i] = SteadyState{
			JobTime: st.T, CPUUtil: st.util, IOWait: st.iowait,
			MapTime: st.mapTime, ReduceTime: st.redTime,
		}
	}
	return out, m.epochWatts(specs, sts, &e.s), nil
}

// PairBatch evaluates the same two applications at every joint
// configuration in cfgs, overwriting each spec's Cfg in turn; out must
// have len(cfgs) elements. This is the inner loop of the database's
// training-row sweep: zero allocations per configuration after the
// first call. Each side's solo tail is solved once per configuration
// of that side (soloTails); every result is bit-identical to
// Model.Pair's, and a noisy model draws the same jitter sequence.
func (e *Evaluator) PairBatch(a, b RunSpec, cfgs [][2]Config, out []CoMetrics) error {
	if len(out) != len(cfgs) {
		return fmt.Errorf("mapreduce: pair batch: %d outputs for %d configs", len(out), len(cfgs))
	}
	return e.pairEach(a, b, cfgs, func(i int, cm CoMetrics) { out[i] = cm })
}

// PairArgmin is PairBatch reduced to the COLAO search's answer: the
// first index into cfgs whose EDP is strictly below every earlier one
// (starting from +Inf), with that EDP, or -1 when none scores (all
// NaN). It needs no buffer for the metrics it scans.
func (e *Evaluator) PairArgmin(a, b RunSpec, cfgs [][2]Config) (int, float64, error) {
	best, bestEDP := -1, math.Inf(1)
	err := e.pairEach(a, b, cfgs, func(i int, cm CoMetrics) {
		if cm.EDP < bestEDP {
			best, bestEDP = i, cm.EDP
		}
	})
	if err != nil {
		return -1, 0, err
	}
	return best, bestEDP, nil
}

// pairEach evaluates the pair at every configuration of cfgs in order,
// with the solo-tail table on for the length of the call, and hands
// each result to emit.
func (e *Evaluator) pairEach(a, b RunSpec, cfgs [][2]Config, emit func(int, CoMetrics)) error {
	e.tails.reset(e.m.Spec.Cores)
	e.s.tails = &e.tails
	defer func() { e.s.tails = nil }()
	for i := range cfgs {
		a.Cfg, b.Cfg = cfgs[i][0], cfgs[i][1]
		cm, err := e.PairMetrics(a, b)
		if err != nil {
			return err
		}
		emit(i, cm)
	}
	return nil
}
