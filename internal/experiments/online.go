package experiments

import (
	"fmt"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

// OnlineData summarizes an open-loop run of the event-driven scheduler.
type OnlineData struct {
	Jobs        int
	Makespan    float64
	EnergyJ     float64
	EDP         float64
	MeanWait    float64 // mean queueing delay (start - submit)
	MaxWait     float64
	MeanElapsed float64 // mean sojourn (finish - submit)
}

// OnlineTrace drives the online ECoST scheduler with a generated
// arrival stream — the open-loop extension of the paper's closed
// 16-job scenarios. It reports cluster EDP and queueing behaviour (the
// head reservation keeps the maximum wait bounded). One shard runs the
// whole cluster, tuned by REPTree unwrapped.
func OnlineTrace(env *Env, spec scenario.Spec, nodes int) (Table, OnlineData, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, err
	}
	data, _, _, err := RunStream(env, arrivals, nodes, core.ShardedConfig{Shards: 1},
		func() core.STP { return env.REPTree }, nil)
	if err != nil {
		return Table{}, data, err
	}
	tbl := Table{
		Title:  fmt.Sprintf("Online ECoST: %d jobs, %d node(s), mean inter-arrival %.0fs", data.Jobs, nodes, spec.Arrivals.Mean),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, data)
	return tbl, data, nil
}

// addOnlineRows appends the shared summary rows of an online run.
func addOnlineRows(tbl *Table, data OnlineData) {
	tbl.AddRow("makespan (s)", data.Makespan)
	tbl.AddRow("energy (kJ)", data.EnergyJ/1000)
	tbl.AddRow("EDP (J·s)", data.EDP)
	tbl.AddRow("mean wait (s)", data.MeanWait)
	tbl.AddRow("max wait (s)", data.MaxWait)
	tbl.AddRow("mean sojourn (s)", data.MeanElapsed)
	tbl.Notes = append(tbl.Notes,
		"head-of-queue reservation bounds the maximum wait (no starvation)")
}

// RunStream is the one online run loop: it builds the sharded control
// plane over env's model, database and profiler, submits a prepared
// arrival stream (generated, cycled from a workload, or a replayed
// JSONL trace), drives it to completion and summarizes the run.
// newTuner builds each shard's tuner; attach, when non-nil, wires
// observability onto the control plane before the first Submit. The
// stream must be in non-decreasing time order, as every internal/scenario
// source emits it: the router profiles serially at submit time, and an
// out-of-order arrival fails the run. The completed jobs are returned
// for queueing analysis (StreamStats).
func RunStream(env *Env, arrivals []trace.Arrival, nodes int, cfg core.ShardedConfig, newTuner func() core.STP, attach func(*core.ShardedScheduler)) (OnlineData, []core.CompletedJob, *core.ShardedScheduler, error) {
	sched, err := core.NewShardedScheduler(env.Model, env.DB, env.Profiler, newTuner, nodes, cfg)
	if err != nil {
		return OnlineData{}, nil, nil, err
	}
	if attach != nil {
		attach(sched)
	}
	for _, a := range arrivals {
		sched.Submit(a.App, a.SizeGB, a.At)
	}
	makespan, energy, err := sched.Run()
	if err != nil {
		return OnlineData{}, nil, nil, err
	}
	done := sched.Completed()
	return summarize(len(arrivals), makespan, energy, done), done, sched, nil
}

// summarize reduces a finished run of `jobs` arrivals to its summary.
func summarize(jobs int, makespan, energy float64, done []core.CompletedJob) OnlineData {
	data := OnlineData{Jobs: jobs, Makespan: makespan, EnergyJ: energy, EDP: energy * makespan}
	for _, c := range done {
		wait := c.Started - c.Submitted
		data.MeanWait += wait
		if wait > data.MaxWait {
			data.MaxWait = wait
		}
		data.MeanElapsed += c.Finished - c.Submitted
	}
	if len(done) > 0 {
		data.MeanWait /= float64(len(done))
		data.MeanElapsed /= float64(len(done))
	}
	return data
}
