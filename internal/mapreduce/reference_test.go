package mapreduce

import (
	"fmt"
	"math"

	"ecost/internal/hdfs"
	"ecost/internal/power"
)

// This file keeps the execution model's contention solver and epoch
// loop as they stood before the one-solve solo path: every app through
// the full damped fixed point, and a fresh solve at the start of every
// epoch, including the first, whose inputs the initial-contention solve
// already covered. The equality tests hold the production solver to
// these bit for bit.

// refEvaluateInto is the reference contention solve; the returned slice
// aliases s.steadies and is valid until the next call with the same
// scratch.
func refEvaluateInto(m *Model, specs []RunSpec, s *evalScratch) []steady {
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

	for iter := 0; iter < 8; iter++ {
		var sumRates float64
		for _, r := range rate {
			sumRates += r
		}
		for i := range specs {
			sp := &specs[i]
			if splits[i] == 0 {
				continue
			}
			duty := sp.App.Profile.DiskDutyCap
			avail := bw - (sumRates - rate[i])
			if avail < 0.1*bw {
				avail = 0.1 * bw
			}
			burst := duty * bw
			if burst > avail {
				burst = avail
			}
			tMap, _ := m.taskTime(float64(sp.Cfg.Mappers), mapPh[i], burst)
			tRed, _ := m.taskTime(float64(sp.Cfg.Mappers), redPh[i], burst)
			waves := (splits[i] + sp.Cfg.Mappers - 1) / sp.Cfg.Mappers
			mapTime := float64(waves) * tMap
			total := mapTime + tRed
			mi := float64(sp.Cfg.Mappers)
			newRate := (float64(splits[i])*mapPh[i].ioMB + mi*redPh[i].ioMB) / total
			rate[i] = 0.5*rate[i] + 0.5*newRate
		}
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
		duty := p.DiskDutyCap
		avail := bw - (sumRates - rate[i])
		if avail < 0.1*bw {
			avail = 0.1 * bw
		}
		burst := duty * bw
		if burst > avail {
			burst = avail
		}
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
		out[i] = steady{
			T:          T,
			mapTime:    mapTime,
			redTime:    tRed,
			util:       clamp01(util),
			iowait:     clamp01(iowait),
			readMB:     sp.DataMB + interMB,
			writeMB:    sp.DataMB*p.SpillFactor + interMB + outMB,
			ipc:        1 / cpi[i],
			mpki:       mpki[i],
			memMB:      float64(sp.Cfg.Mappers) * (m.BufFracOfBlock*float64(sp.Cfg.Block) + p.MemFootprintMBPerTask),
			ioRateMBps: rate[i],
			splits:     splits[i],
			waves:      waves,
		}
	}
	return out
}

// refCoLocateInto is the reference CoLocate on caller-owned buffers.
// apps, when non-nil, must have len(specs) elements and receives the
// per-app outcomes; a nil apps skips the initial-contention evaluation
// and the per-app bookkeeping entirely (the node-level energy/makespan
// math is unaffected — the epoch loop is the only thing that feeds it).
func refCoLocateInto(m *Model, specs []RunSpec, s *evalScratch, apps []Outcome) (CoOutcome, error) {
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
	for i := range specs {
		active[i] = true
		rem[i] = 1
	}
	if apps != nil {
		first := refEvaluateInto(m, specs, s)
		for i, st := range first {
			apps[i] = Outcome{
				MapTime:    st.mapTime,
				ReduceTime: st.redTime,
				CPUUtil:    st.util,
				IOWaitFrac: st.iowait,
				ReadMB:     st.readMB,
				WrittenMB:  st.writeMB,
				EffIPC:     st.ipc,
				EffLLCMPKI: st.mpki,
				MemMB:      st.memMB,
				Waves:      st.waves,
				Splits:     st.splits,
			}
		}
	}

	now := 0.0
	remaining := n
	for remaining > 0 {
		sub := s.sub[:0]
		idx := s.idx[:0]
		for i, a := range active {
			if a {
				sub = append(sub, specs[i])
				idx = append(idx, i)
			}
		}
		sts := refEvaluateInto(m, sub, s)
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
		subActive := s.subActv[:len(sub)]
		for k := range sub {
			subActive[k] = true
		}
		watts := power.NodePower(m.Spec, m.activityInto(sub, sts, subActive, s))
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
