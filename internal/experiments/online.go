package experiments

import (
	"fmt"
	"sort"

	"ecost/internal/audit"
	"ecost/internal/core"
	"ecost/internal/trace"
	"ecost/internal/tracing"
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

// OnlineTrace drives the online ECoST scheduler with a synthetic arrival
// trace — the open-loop extension of the paper's closed 16-job
// scenarios. It reports cluster EDP and queueing behaviour (the head
// reservation keeps the maximum wait bounded).
func OnlineTrace(env *Env, spec trace.Spec, nodes int) (Table, OnlineData, error) {
	tbl, data, _, err := onlineTrace(env, spec, nodes, false, env.REPTree, nil)
	return tbl, data, err
}

// OnlineTraceObserved is OnlineTrace with span tracing attached: it
// additionally returns the per-job / per-class EDP attribution report
// and appends the attributed-energy summary to the table. The traced
// run is identical to the untraced one (tracing observes the same
// event loop without perturbing it).
func OnlineTraceObserved(env *Env, spec trace.Spec, nodes int) (Table, OnlineData, tracing.Report, error) {
	return onlineTrace(env, spec, nodes, true, env.REPTree, nil)
}

// OnlineQualityObserved is OnlineTrace with the decision-audit log
// attached, returning the aggregated quality report (classifier
// confusion, STP error histograms, interference, oracle regret, drift)
// alongside the raw log for JSONL export. The run is tuned by the
// lookup table rather than REPTree: LkT is the technique that exposes
// an outcome forecast, so the predicted-vs-realized joins the report is
// about actually populate.
func OnlineQualityObserved(env *Env, spec trace.Spec, nodes int) (Table, OnlineData, audit.QualityReport, *audit.Log, error) {
	aud := audit.NewLog(audit.DriftConfig{})
	tbl, data, _, err := onlineTrace(env, spec, nodes, false, env.LkT, aud)
	if err != nil {
		return tbl, data, audit.QualityReport{}, nil, err
	}
	q := aud.Quality(core.NewAuditOracle(env.Oracle))
	tbl.AddRow("classifier accuracy (%)", 100*q.Accuracy)
	tbl.AddRow("prediction joins", q.Joined)
	tbl.AddRow("oracle regret rows", len(q.Regret))
	tbl.AddRow("drift alerts", len(q.Drift.Alerts))
	tbl.Notes = append(tbl.Notes,
		"quality rows join every LkT forecast with its realized outcome (full report: ecost-sim -online -quality-report)")
	return tbl, data, q, aud, nil
}

func onlineTrace(env *Env, spec trace.Spec, nodes int, traced bool, tuner core.STP, aud *audit.Log) (Table, OnlineData, tracing.Report, error) {
	arrivals, err := trace.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, tracing.Report{}, err
	}
	// One shard runs the whole cluster; the technique runs unwrapped,
	// and the tracer and audit log go on it.
	var tr *tracing.Tracer
	attach := func(c *core.ShardedScheduler) {
		if traced {
			tr = tracing.New()
			c.SetTracer(tr)
		}
		c.SetAudit([]*audit.Log{aud})
	}
	var rep tracing.Report
	data, _, _, err := runStream(env, arrivals, nodes, core.ShardedConfig{Shards: 1},
		func() core.STP { return tuner }, attach)
	if err != nil {
		return Table{}, data, rep, err
	}
	if traced {
		rep = tr.Report()
	}
	tbl := Table{
		Title:  fmt.Sprintf("Online ECoST: %d jobs, %d node(s), mean inter-arrival %.0fs", data.Jobs, nodes, spec.MeanInterarrival),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, data)
	if traced {
		tbl.AddRow("attributed energy (kJ)", rep.AttributedJ/1000)
		tbl.Notes = append(tbl.Notes,
			"attributed energy is the solo+co-located share of the bill carried by job run spans")
	}
	return tbl, data, rep, nil
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

// runStream drives one run of a prepared arrival stream (generated
// trace, scenario stream, or replayed JSONL trace) through the sharded
// control plane and summarizes it. newTuner builds each shard's tuner;
// attach, when non-nil, wires observability onto the control plane
// before the first Submit. The router requires time-ordered
// submissions (it profiles serially at submit time to preserve the
// legacy profiling order), so an out-of-order stream is stable-sorted
// by arrival time first — the exact order an event heap would fire
// those arrivals in. The completed jobs are returned for queueing
// analysis (StreamStats).
func runStream(env *Env, arrivals []trace.Arrival, nodes int, cfg core.ShardedConfig, newTuner func() core.STP, attach func(*core.ShardedScheduler)) (OnlineData, []core.CompletedJob, *core.ShardedScheduler, error) {
	sched, err := core.NewShardedScheduler(env.Model, env.DB, env.Profiler, newTuner, nodes, cfg)
	if err != nil {
		return OnlineData{}, nil, nil, err
	}
	if attach != nil {
		attach(sched)
	}
	if !sort.SliceIsSorted(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At }) {
		sorted := append([]trace.Arrival(nil), arrivals...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
		arrivals = sorted
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
