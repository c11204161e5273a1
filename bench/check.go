package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/trace"
)

// check counts the failed jobs of one pass. A job is failed when it is
// missing from the completions, completes more than once, was submitted
// at another time than it arrived, breaks Submitted ≤ Started <
// Finished ≤ makespan, or runs an off-grid configuration. An energy
// total that is not finite or lies below the idle floor (every node
// idling for the whole makespan) counts as one more failure.
func check(arrivals []trace.Arrival, done []core.CompletedJob, nodes int, spec cluster.NodeSpec, makespan, energy float64) int {
	failed := 0
	seen := make([]bool, len(arrivals))
	for _, c := range done {
		if c.ID < 0 || c.ID >= len(arrivals) || seen[c.ID] {
			failed++
			continue
		}
		seen[c.ID] = true
		if c.Submitted != arrivals[c.ID].At ||
			!(c.Submitted <= c.Started && c.Started < c.Finished && c.Finished <= makespan) ||
			c.Cfg.Validate(spec.Cores) != nil {
			failed++
		}
	}
	for _, ok := range seen {
		if !ok {
			failed++
		}
	}
	if math.IsNaN(energy) || math.IsInf(energy, 0) || energy < idleFloor(nodes, spec, makespan) {
		failed++
	}
	return failed
}

// idleFloor is the energy of every node idling for the whole makespan.
func idleFloor(nodes int, spec cluster.NodeSpec, makespan float64) float64 {
	return float64(nodes) * spec.IdleWatts * makespan
}

// simResult is what a pass simulated. It is a pure function of the
// stream, so every pass of one process must produce the same value.
type simResult struct {
	makespanS, energyJ float64
	// activeJ is the energy drawn above an idle cluster over the
	// makespan: the part tuning and co-location decide.
	activeJ          float64
	waitP50, waitP99 float64
	turnP50, turnP99 float64
	slotUtil         float64
	// fingerprint hashes every completion record in merge order plus
	// the makespan and energy bits.
	fingerprint uint64
}

func summarize(done []core.CompletedJob, nodes int, spec cluster.NodeSpec, makespan, energy float64) simResult {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wait := make([]float64, len(done))
	turn := make([]float64, len(done))
	busy := 0.0
	for i, c := range done {
		put(uint64(c.ID))
		h.Write([]byte(c.App))
		for _, f := range []float64{c.SizeGB, c.Submitted, c.Started, c.Finished, float64(c.Cfg.Freq)} {
			put(math.Float64bits(f))
		}
		put(uint64(c.Node))
		put(uint64(c.Cfg.Block))
		put(uint64(c.Cfg.Mappers))
		wait[i] = c.Started - c.Submitted
		turn[i] = c.Finished - c.Submitted
		busy += c.Finished - c.Started
	}
	put(math.Float64bits(makespan))
	put(math.Float64bits(energy))
	sort.Float64s(wait)
	sort.Float64s(turn)
	return simResult{
		makespanS: makespan,
		energyJ:   energy,
		activeJ:   energy - idleFloor(nodes, spec, makespan),
		waitP50:   nearestRank(wait, 0.50),
		waitP99:   nearestRank(wait, 0.99),
		turnP50:   nearestRank(turn, 0.50),
		turnP99:   nearestRank(turn, 0.99),
		// Two slots per node: the co-location cap.
		slotUtil:    ratio(busy, 2*float64(nodes)*makespan),
		fingerprint: h.Sum64(),
	}
}

// nearestRank is the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
