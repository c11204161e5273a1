package experiments

import (
	"fmt"
	"math"
	"sort"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

// QueueStats are the queueing observables the paper never measured:
// cluster utilization, the wait-queue length distribution, and wait /
// sojourn percentiles. All derive deterministically from the completed
// jobs, so two identical runs report identical stats.
type QueueStats struct {
	// Utilization is busy node-seconds (union of resident intervals
	// per node) over nodes × makespan.
	Utilization float64

	// Time-weighted wait-queue length distribution over [0, makespan]:
	// jobs submitted but not yet started.
	MeanQueueLen float64
	P95QueueLen  float64
	MaxQueueLen  int

	// Wait (start − submit) and sojourn (finish − submit) percentiles.
	WaitP50, WaitP95, WaitP99          float64
	SojournP50, SojournP95, SojournP99 float64
}

// StreamStats computes the queueing observables of a finished online
// run. makespan bounds the busy-time integral; it is the scheduler's
// reported makespan (max finish time).
func StreamStats(done []core.CompletedJob, nodes int, makespan float64) QueueStats {
	var qs QueueStats
	if len(done) == 0 || nodes <= 0 || makespan <= 0 {
		return qs
	}

	// Utilization: per-node union of [Started, Finished) intervals
	// (co-located jobs overlap; the union counts the wall time the
	// node held at least one resident).
	type iv struct{ s, e float64 }
	byNode := map[int][]iv{}
	for _, c := range done {
		byNode[c.Node] = append(byNode[c.Node], iv{c.Started, c.Finished})
	}
	busy := 0.0
	for _, ivs := range byNode {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		curS, curE := ivs[0].s, ivs[0].e
		for _, v := range ivs[1:] {
			if v.s > curE {
				busy += curE - curS
				curS, curE = v.s, v.e
				continue
			}
			if v.e > curE {
				curE = v.e
			}
		}
		busy += curE - curS
	}
	qs.Utilization = busy / (float64(nodes) * makespan)

	// Wait-queue length over time: +1 at submit, −1 at start, swept in
	// time order with time-weighted durations per level.
	type ev struct {
		at float64
		d  int
	}
	evs := make([]ev, 0, 2*len(done))
	for _, c := range done {
		evs = append(evs, ev{c.Submitted, +1}, ev{c.Started, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].d < evs[j].d // starts drain before same-instant submits
	})
	levelDur := map[int]float64{}
	depth, prevAt := 0, 0.0
	for _, e := range evs {
		if e.at > prevAt {
			levelDur[depth] += e.at - prevAt
			prevAt = e.at
		}
		depth += e.d
		if depth > qs.MaxQueueLen {
			qs.MaxQueueLen = depth
		}
	}
	if makespan > prevAt {
		levelDur[depth] += makespan - prevAt
	}
	levels := make([]int, 0, len(levelDur))
	total := 0.0
	for l, d := range levelDur {
		levels = append(levels, l)
		total += d
		qs.MeanQueueLen += float64(l) * d
	}
	if total > 0 {
		qs.MeanQueueLen /= total
		sort.Ints(levels)
		cum := 0.0
		qs.P95QueueLen = float64(levels[len(levels)-1])
		for _, l := range levels {
			cum += levelDur[l]
			if cum >= 0.95*total {
				qs.P95QueueLen = float64(l)
				break
			}
		}
	}

	waits := make([]float64, 0, len(done))
	sojourns := make([]float64, 0, len(done))
	for _, c := range done {
		waits = append(waits, c.Started-c.Submitted)
		sojourns = append(sojourns, c.Finished-c.Submitted)
	}
	sort.Float64s(waits)
	sort.Float64s(sojourns)
	qs.WaitP50, qs.WaitP95, qs.WaitP99 = pct(waits, 0.50), pct(waits, 0.95), pct(waits, 0.99)
	qs.SojournP50, qs.SojournP95, qs.SojournP99 = pct(sojourns, 0.50), pct(sojourns, 0.95), pct(sojourns, 0.99)
	return qs
}

// pct is the nearest-rank percentile of a sorted sample.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// AddRows appends the stats to a result table.
func (qs QueueStats) AddRows(tbl *Table) {
	tbl.AddRow("utilization", qs.Utilization)
	tbl.AddRow("mean queue length", qs.MeanQueueLen)
	tbl.AddRow("p95 queue length", qs.P95QueueLen)
	tbl.AddRow("max queue length", qs.MaxQueueLen)
	tbl.AddRow("wait p50/p95/p99 (s)", fmt.Sprintf("%.1f / %.1f / %.1f", qs.WaitP50, qs.WaitP95, qs.WaitP99))
	tbl.AddRow("sojourn p50/p95/p99 (s)", fmt.Sprintf("%.1f / %.1f / %.1f", qs.SojournP50, qs.SojournP95, qs.SojournP99))
}

// OnlineScenario drives the online ECoST control plane with a
// generated scenario stream (internal/scenario) and reports cluster
// EDP plus the queueing observables. Where OnlineTrace runs one
// REPTree-tuned shard, it runs the memoized LkT tuner on any partition
// of the cluster. cfg partitions the cluster: Shards 1 is the
// single scheduler; with more shards and stealing off, makespan and
// energy match the single-shard run to 1e-9 whenever jobs do not
// overlap in time (see DESIGN.md §14 for the determinism contract).
func OnlineScenario(env *Env, spec scenario.Spec, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, err
	}
	return OnlineReplay(env, spec.String(), arrivals, nodes, cfg)
}

// OnlineReplay drives the control plane with a pre-parsed arrival
// stream (a replayed JSONL trace). The run is indistinguishable from
// the generating run: identical streams produce identical tables,
// independent of GOMAXPROCS.
func OnlineReplay(env *Env, label string, arrivals []trace.Arrival, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, error) {
	data, done, sched, err := RunStream(env, arrivals, nodes, cfg,
		func() core.STP { return core.NewMemoSTP(env.LkT, nil) }, nil)
	if err != nil {
		return Table{}, data, QueueStats{}, err
	}
	qs := StreamStats(done, nodes, data.Makespan)
	tbl := Table{
		Title:  fmt.Sprintf("Online ECoST scenario (%d shard(s)): %s, %d node(s)", sched.Shards(), label, nodes),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, data)
	qs.AddRows(&tbl)
	tbl.AddRow("shards", sched.Shards())
	tbl.AddRow("steals", sched.Steals())
	bs := sched.BarrierStats()
	tbl.AddRow("exact barriers", bs.Barriers)
	tbl.AddRow("free windows", bs.Windows)
	tbl.AddRow("events elided", bs.WindowEvents)
	tbl.AddRow("elided %", fmt.Sprintf("%.1f", 100*bs.ElidedRatio()))
	tbl.Notes = append(tbl.Notes,
		"utilization is busy node-time over nodes x makespan; queue lengths are time-weighted",
		"shards own disjoint node slices; submissions route by a hash of the application name, idle shards steal queue heads at event barriers",
		"one engine fires every shard's events in time order; barriers are event times followed by a steal pass, free windows runs of event times at which no steal can fire (events elided counts work that skipped a barrier)")
	return tbl, data, qs, nil
}
