package experiments

import (
	"fmt"
	"time"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/sim"
)

// ShardSweepPoint is one shard count of a control-plane throughput
// sweep.
type ShardSweepPoint struct {
	Shards     int
	WallMS     float64 // host wall-clock for the whole run
	JobsPerSec float64 // simulated jobs per host second
	Makespan   float64
	EnergyJ    float64
	Steals     int
	Barriers   int64 // barrier iterations (steal passes)
	Windows    int64 // maximal runs of barrier-free event times
	Elided     int64 // events fired inside windows (barriers elided)
}

// ShardSweep reruns one scenario stream at each shard count and reports
// control-plane throughput (simulated jobs per host-second) next to the
// simulated outcome. Each point starts from a fresh profiler seeded by
// env.Seed, so the offered stream is identical across rows and only the
// partitioning changes; jobs/s is host-dependent and meant for relative
// comparison, the simulated columns for checking outcome stability. The
// sweep runs the perf configuration: stealing and recurring-tenant
// profile memoization on. The first shard count runs once untimed
// before the timed rows, so no row pays the process's one-time
// warm-up.
func ShardSweep(env *Env, spec scenario.Spec, nodes int, shardCounts []int) (Table, []ShardSweepPoint, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, nil, err
	}
	tbl := Table{
		Title:  fmt.Sprintf("Shard sweep: %s, %d node(s)", spec.String(), nodes),
		Header: []string{"shards", "wall (ms)", "jobs/s", "makespan (s)", "energy (kJ)", "steals", "barriers", "elided", "elided %"},
	}
	run := func(s int) (OnlineData, *core.ShardedScheduler, time.Duration, error) {
		e := *env
		e.Profiler = core.NewProfiler(env.Model, sim.NewRNG(env.Seed))
		cfg := core.ShardedConfig{Shards: s, Steal: s > 1, ProfileMemo: true}
		start := time.Now()
		data, _, sched, err := RunStream(&e, arrivals, nodes, cfg,
			func() core.STP { return core.NewMemoSTP(e.LkT, nil) }, nil)
		return data, sched, time.Since(start), err
	}
	if len(shardCounts) > 0 {
		if _, _, _, err := run(shardCounts[0]); err != nil {
			return Table{}, nil, err
		}
	}
	var points []ShardSweepPoint
	for _, s := range shardCounts {
		data, sched, wall, err := run(s)
		if err != nil {
			return Table{}, nil, err
		}
		bs := sched.BarrierStats()
		p := ShardSweepPoint{
			Shards:     s,
			WallMS:     float64(wall.Microseconds()) / 1000,
			JobsPerSec: float64(len(arrivals)) / wall.Seconds(),
			Makespan:   data.Makespan,
			EnergyJ:    data.EnergyJ,
			Steals:     sched.Steals(),
			Barriers:   bs.Barriers,
			Windows:    bs.Windows,
			Elided:     bs.WindowEvents,
		}
		points = append(points, p)
		tbl.AddRow(p.Shards, p.WallMS, p.JobsPerSec, p.Makespan, p.EnergyJ/1000, p.Steals,
			p.Barriers, p.Elided, fmt.Sprintf("%.1f", 100*bs.ElidedRatio()))
	}
	tbl.Notes = append(tbl.Notes,
		"jobs/s is host wall-clock throughput of the control plane (machine-dependent); simulated columns show outcome stability",
		"barriers counts event times followed by a steal pass, elided the events that fired in free windows, where no steal could")
	return tbl, points, nil
}
