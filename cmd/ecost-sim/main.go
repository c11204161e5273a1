// Command ecost-sim runs one workload scenario through a mapping policy
// on a simulated cluster — either in batch mode (the Figure-9 runner) or
// as an online, event-driven simulation through the full ECoST pipeline
// (profile → classify → queue → pair → tune).
//
// Usage:
//
//	ecost-sim -scenario WS4 -policy ECoST -nodes 4
//	ecost-sim -scenario WS8 -online -nodes 2 -arrival 120
//	ecost-sim -scenario WS4 -online -nodes 256 -jobs 2000 -arrival 6
//	ecost-sim -scenario 'gen:jobs=500;arrivals=mmpp:calm=300,burst=10;sizes=pareto:alpha=1.5,min=1;mix=zipf:s=1.1,tenants=16' -nodes 8 -seed 7
//	ecost-sim -scenario 'gen:jobs=200' -arrivals poisson:60 -trace-record load.jsonl
//	ecost-sim -online -trace-replay load.jsonl -nodes 8
//	ecost-sim -scenario WS4 -online -metrics
//	ecost-sim -scenario WS4 -online -trace-out trace.json -edp-report
//	ecost-sim -scenario WS4 -online -quality-report
//	ecost-sim -scenario WS4 -online -serve :9090
//
// -scenario accepts either a named workload (WS1..WS8) or a generated
// heavy-traffic scenario in the `gen:` grammar of internal/scenario
// (seeded arrival processes, heavy-tailed sizes, recurring tenant
// mixes); gen: scenarios imply -online. -trace-record writes the
// arrival stream as JSONL before the run; -trace-replay plays a
// recorded stream back byte-identically instead of generating one.
// Stream runs (gen:, -jobs, replay) report queueing observables:
// utilization, wait-queue lengths, and wait/sojourn percentiles.
//
// -metrics appends an observability snapshot of the online run (queue
// depth, per-class wait latency, pairing-tree outcomes, STP prediction
// telemetry, energy split by occupancy phase). The snapshot is
// deterministic: two runs with the same flags produce byte-identical
// output. -metrics-volatile additionally includes wall-clock sections,
// which vary run to run.
//
// Every online run goes through the sharded control plane; -shards
// (default 1) sets how many per-shard schedulers split the cluster.
// The run summary names the shard and steal counts and how many events
// ran free of barriers, and every per-shard report below prints one
// "== shard N ==" section per shard.
//
// -trace-out writes a Chrome trace_event JSON of the run's spans (job
// lifecycle, map/reduce phases, per-node occupancy) loadable in
// Perfetto or chrome://tracing; -timeline-out writes the same spans as
// a deterministic text timeline; -edp-report prints the per-job and
// per-class energy/EDP attribution rollup per shard plus a
// "== merged ==" rollup. Each shard records its own span set: with two
// or more shards, -trace-out merges them deterministically into one
// document with a track group per shard and cross-shard steals drawn
// as flow arrows (steal_out → steal_in), and -timeline-out writes
// per-shard "== shard N ==" sections plus a "== merged ==" global
// section. -quality-report prints the
// decision-quality report (classifier confusion, predicted-vs-realized
// STP error, co-location interference, oracle regret, drift alerts)
// built from the per-decision audit log. -serve exposes all of the
// above plus Prometheus /metrics, the audit log as /decisions JSONL,
// the quality report as /quality, the flight-recorder endpoints
// /shards, /epochs, /health, and /flight, and /debug/pprof/ over HTTP,
// live during the run and until interrupted afterwards. Multi-shard
// runs serve merged views by default — Prometheus families gain a
// shard="N" label — with ?shard=N selecting one shard.
//
// -flight-out writes the control plane's anomaly-triggered
// flight-recorder dumps (queue growth, shard imbalance, STP drift) as
// JSONL; -health-report prints the aggregated shard-health report
// (steal-flow matrix, Jain fairness, queue-growth slope, power skew)
// after the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"ecost/internal/cliutil"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/scenario"
	"ecost/internal/trace"
)

func main() {
	scenarioFlag := flag.String("scenario", "WS4", "workload scenario WS1..WS8, or a generated stream 'gen:jobs=N[;arrivals=…][;sizes=…][;mix=…]' (implies -online)")
	policy := flag.String("policy", "ECoST", "mapping policy: SM, MNM1, MNM2, SNM, CBM, PTM, ECoST, UB")
	nodes := flag.Int("nodes", 4, "cluster size")
	online := flag.Bool("online", false, "run the event-driven online scheduler instead of batch mapping")
	arrival := flag.Float64("arrival", 0, "mean inter-arrival seconds for -online workload streams (0 = all at t=0)")
	arrivalsFlag := flag.String("arrivals", "", "override a gen: scenario's arrival process, e.g. poisson:60, mmpp:calm=300,burst=10, diurnal:mean=60,amp=0.8")
	jobs := flag.Int("jobs", 0, "scale the online job stream to this many jobs by cycling the scenario's list (0 = scenario as-is; requires -online)")
	traceRecord := flag.String("trace-record", "", "write the arrival stream as a JSONL trace to this file before running (requires -online)")
	traceReplay := flag.String("trace-replay", "", "replay a recorded JSONL arrival trace instead of generating a stream (requires -online)")
	seed := flag.Int64("seed", 42, "random seed")
	emitMetrics := flag.Bool("metrics", false, "collect and print an observability snapshot (implies -online)")
	metricsJSON := flag.Bool("metrics-json", false, "print the -metrics snapshot as JSON instead of text")
	metricsVolatile := flag.Bool("metrics-volatile", false, "include wall-clock (non-deterministic) sections in the -metrics snapshot")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of the online run to this file (requires -online)")
	timelineOut := flag.String("timeline-out", "", "write the deterministic span timeline of the online run to this file (requires -online)")
	edpReport := flag.Bool("edp-report", false, "print the per-job / per-class EDP attribution report after the online run (requires -online)")
	qualityReport := flag.Bool("quality-report", false, "print the decision-quality report (confusion, STP error, regret, drift) after the online run (requires -online)")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace, /report, /decisions, /quality, and /debug/pprof/ on this address during and after the online run (requires -online)")
	shards := flag.Int("shards", 1, "partition the online cluster into this many per-shard schedulers with hash-routed submissions (requires -online; 1 = one shard over the whole cluster)")
	steal := flag.Bool("steal", false, "let idle shards steal queued jobs at event barriers (requires -shards 2+)")
	flightOut := flag.String("flight-out", "", "write the flight recorder's anomaly-triggered epoch dumps as JSONL to this file after the run (requires -online; the recorder closes one epoch per event time and leaves the drive's barrier cadence as it is)")
	healthReport := flag.Bool("health-report", false, "print the shard-health report (steal flow, fairness, queue slope, power skew) after the run (requires -online)")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	flag.Parse()

	if err := cliutil.SetupLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "ecost-sim:", err)
		os.Exit(cliutil.ExitUsage)
	}
	if *emitMetrics && !*online {
		slog.Warn("-metrics instruments the online scheduler; enabling -online")
		*online = true
	}
	genMode := strings.HasPrefix(*scenarioFlag, "gen:")
	if genMode && !*online {
		slog.Warn("gen: scenarios drive the online scheduler; enabling -online")
		*online = true
	}
	shardsSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "shards" {
			shardsSet = true
		}
	})
	rf := runFlags{
		Online:          *online,
		Nodes:           *nodes,
		Jobs:            *jobs,
		Arrival:         *arrival,
		ScenarioGen:     genMode,
		Arrivals:        *arrivalsFlag,
		TraceRecord:     *traceRecord,
		TraceReplay:     *traceReplay,
		Metrics:         *emitMetrics,
		MetricsJSON:     *metricsJSON,
		MetricsVolatile: *metricsVolatile,
		TraceOut:        *traceOut,
		TimelineOut:     *timelineOut,
		EDPReport:       *edpReport,
		QualityReport:   *qualityReport,
		ServeAddr:       *serveAddr,
		FlightOut:       *flightOut,
		HealthReport:    *healthReport,
		Shards:          *shards,
		ShardsSet:       shardsSet,
		Steal:           *steal,
	}
	if msg := rf.contradiction(); msg != "" {
		cliutil.Usagef(msg)
	}
	if msg := rf.unwritableOutput(); msg != "" {
		cliutil.Usagef(msg)
	}

	var wl core.Workload
	if !genMode && *traceReplay == "" {
		var err error
		wl, err = core.Scenario(*scenarioFlag)
		if err != nil {
			cliutil.Usagef("bad -scenario", "err", err)
		}
		fmt.Printf("scenario %s %s\n%s\n\n", wl.Name, wl.ClassSignature(), wl.AppSignature())
	}

	slog.Info("building environment (database + models)")
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		cliutil.Fatalf("building environment failed", "err", err)
	}

	if *online {
		arrivals, header, perJobTable := buildStream(wl, genMode, *scenarioFlag, *arrivalsFlag, *traceReplay, *jobs, *arrival, *seed, *nodes)
		if *traceRecord != "" {
			if err := writeArtifact(*traceRecord, func(w io.Writer) error {
				return scenario.WriteTrace(w, arrivals)
			}); err != nil {
				cliutil.Fatalf("writing -trace-record failed", "err", err)
			}
			slog.Info("recorded arrival trace", "path", *traceRecord, "arrivals", len(arrivals))
		}
		runOnline(os.Stdout, env, rf, arrivals, header, perJobTable)
		return
	}

	var pol core.Policy
	found := false
	for _, p := range core.Policies() {
		if p.String() == *policy {
			pol, found = p, true
		}
	}
	if !found {
		cliutil.Usagef("unknown -policy", "policy", *policy)
	}
	runner := &core.PolicyRunner{Oracle: env.Oracle, DB: env.DB, Tuner: env.LkT, Profiler: env.Profiler}
	res, err := runner.Run(pol, wl, *nodes)
	if err != nil {
		cliutil.Fatalf("policy run failed", "policy", pol.String(), "err", err)
	}
	ub, err := runner.Run(core.UB, wl, *nodes)
	if err != nil {
		cliutil.Fatalf("UB baseline run failed", "err", err)
	}
	fmt.Printf("policy %v on %d node(s):\n", pol, *nodes)
	fmt.Printf("  makespan  %.0f s\n", res.Makespan)
	fmt.Printf("  energy    %.0f J\n", res.EnergyJ)
	fmt.Printf("  EDP       %.4g J·s\n", res.EDP)
	fmt.Printf("  vs UB     %.2fx (UB EDP %.4g)\n", res.EDP/ub.EDP, ub.EDP)
}

// writeArtifact streams one exporter into a freshly created file.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildStream resolves the online arrival stream from the three
// sources, in precedence order: a replayed JSONL trace, a generated
// gen: scenario, or the named workload cycled through
// scenario.FromWorkload (the -jobs path; 0 keeps the scenario as-is).
// It returns the stream, the run header, and whether the per-job
// completion table should be printed (plain workload runs only —
// stream runs report queueing observables instead).
func buildStream(wl core.Workload, genMode bool, scenarioFlag, arrivalsFlag, traceReplay string, jobs int, arrival float64, seed int64, nodes int) ([]trace.Arrival, string, bool) {
	if traceReplay != "" {
		f, err := os.Open(traceReplay)
		if err != nil {
			cliutil.Fatalf("opening -trace-replay failed", "err", err)
		}
		arrivals, err := scenario.ReadTrace(f)
		f.Close()
		if err != nil {
			cliutil.Fatalf("reading -trace-replay failed", "err", err)
		}
		header := fmt.Sprintf("online ECoST on %d node(s), replaying %s (%d arrivals):", nodes, traceReplay, len(arrivals))
		return arrivals, header, false
	}
	if genMode {
		spec, err := scenario.ParseSpec(scenarioFlag)
		if err != nil {
			cliutil.Usagef("bad -scenario gen: spec", "err", err)
		}
		spec.Seed = seed
		if arrivalsFlag != "" {
			spec.Arrivals, err = scenario.ParseArrivals(arrivalsFlag)
			if err != nil {
				cliutil.Usagef("bad -arrivals", "err", err)
			}
		}
		arrivals, err := scenario.Generate(spec)
		if err != nil {
			cliutil.Usagef("bad -scenario gen: spec", "err", err)
		}
		header := fmt.Sprintf("online ECoST on %d node(s), scenario %s, seed %d:", nodes, spec.String(), seed)
		return arrivals, header, false
	}
	arrivals, err := scenario.FromWorkload(wl, jobs, arrival, seed)
	if err != nil {
		cliutil.Fatalf("building workload stream failed", "err", err)
	}
	header := fmt.Sprintf("online ECoST on %d node(s), mean inter-arrival %.0fs:", nodes, arrival)
	return arrivals, header, jobs == 0
}
