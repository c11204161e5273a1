package experiments

import (
	"fmt"

	"ecost/internal/audit"
	"ecost/internal/core"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/scenario"
	"ecost/internal/tracing"
)

// ShardedObservation bundles the observability handles of one fully
// observed sharded run: per-shard registries and audit logs, plus the
// control plane's one span tracer and flight recorder. Every export they render (metrics
// snapshots, audit JSONL, merged Chrome trace and timeline, EDP
// report, shard-health report, epoch JSONL, flight dumps) is a pure
// function of the submitted stream, independent of GOMAXPROCS — the
// same determinism contract as the run itself.
type ShardedObservation struct {
	Registries []*metrics.Registry
	Audits     []*audit.Log
	Trace      *tracing.Tracer
	Flight     *flight.Recorder
}

// OnlineScenarioShardedObserved is OnlineScenario with the full
// observability stack attached: per-shard registries metering memoized
// tuners, per-shard decision audit logs, and the barrier flight
// recorder. It reports the same table and observables and additionally
// returns the observation handles so callers can render shard health,
// epoch wide-events, and anomaly dumps after the run.
func OnlineScenarioShardedObserved(env *Env, spec scenario.Spec, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, *ShardedObservation, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, nil, err
	}
	obs := &ShardedObservation{}
	newTuner := func() core.STP {
		reg := metrics.NewRegistry()
		obs.Registries = append(obs.Registries, reg)
		return core.NewMemoSTP(env.LkT, reg)
	}
	attach := func(sched *core.ShardedScheduler) {
		sched.SetMetrics(obs.Registries)
		for i := 0; i < cfg.Shards; i++ {
			obs.Audits = append(obs.Audits, audit.NewLog(audit.DriftConfig{}))
		}
		sched.SetAudit(obs.Audits)
		obs.Trace = tracing.New()
		sched.SetTracer(obs.Trace)
		obs.Flight = flight.New(flight.Config{Shards: cfg.Shards, ShardNodes: sched.ShardNodes()})
		sched.SetFlight(obs.Flight)
	}
	data, done, sched, err := runStream(env, arrivals, nodes, cfg, newTuner, attach)
	if err != nil {
		return Table{}, data, QueueStats{}, nil, err
	}
	qs := StreamStats(done, nodes, data.Makespan)
	tbl := Table{
		Title:  fmt.Sprintf("Online ECoST scenario, observed (%d shard(s)): %s, %d node(s)", sched.Shards(), spec.String(), nodes),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, data)
	qs.AddRows(&tbl)
	tbl.AddRow("shards", sched.Shards())
	tbl.AddRow("steals", sched.Steals())
	tbl.AddRow("epochs", obs.Flight.Epochs())
	tbl.AddRow("flight dumps", len(obs.Flight.Dumps()))
	tbl.Notes = append(tbl.Notes,
		"fully observed run: per-shard metrics + audit, one span tracer, barrier flight recorder; render traces, shard health, and dumps from the returned handles")
	return tbl, data, qs, obs, nil
}
