package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"

	"ecost/internal/audit"
	"ecost/internal/cliutil"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/trace"
	"ecost/internal/tracing"
)

// runOnline drives the arrival stream through the sharded control
// plane with experiments.RunStream — f.Shards per-shard schedulers over
// disjoint slices of f.Nodes nodes, hash-routed submissions, and (with
// f.Steal) deterministic work stealing at event barriers; one shard
// runs the whole cluster — and writes the run summary and the reports
// f asks for to w. The plane feeds one sink of each kind (metrics
// registry, decision-audit log, span tracer, flight recorder), whose
// records carry the shard that made them: reports print one
// "== shard N ==" section per shard, the span exports add the merged
// view, and f.ServeAddr serves merged and ?shard=N views over HTTP.
func runOnline(w io.Writer, env *experiments.Env, f runFlags, arrivals []trace.Arrival, header string, perJobTable bool) {
	serving := f.ServeAddr != ""
	qualityOracle := core.NewAuditOracle(env.Oracle)
	var (
		reg *metrics.Registry
		aud *audit.Log
		tr  *tracing.Tracer
		fr  *flight.Recorder
		srv *http.Server
	)
	attach := func(sched *core.ShardedScheduler) {
		if f.Metrics || serving {
			reg = metrics.NewRegistry()
			sched.SetMetrics(reg)
		}
		if f.QualityReport || serving {
			aud = audit.NewLog(audit.DriftConfig{})
			sched.SetAudit(aud)
		}
		if f.TraceOut != "" || f.TimelineOut != "" || f.EDPReport || serving {
			tr = tracing.New()
			sched.SetTracer(tr)
		}
		if f.FlightOut != "" || f.HealthReport || serving {
			fr = flight.New()
			sched.SetFlight(fr)
		}
		if !serving {
			return
		}
		ln, err := net.Listen("tcp", f.ServeAddr)
		if err != nil {
			cliutil.Fatalf("-serve listen failed", "err", err)
		}
		srv = &http.Server{Handler: newServeMux(serveSources{
			shards:   sched.Shards(),
			reg:      reg,
			tr:       tr,
			aud:      aud,
			qo:       qualityOracle,
			fr:       fr,
			volatile: f.MetricsVolatile,
		})}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				slog.Error("observability server failed", "err", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving observability endpoints on http://%s/\n", ln.Addr())
	}
	// Recurring jobs re-ask the tuner the same question; the memo cache
	// answers repeats in one lookup. The shard's observer registers the
	// memo's volatile hit/miss counters and meters the tuner's
	// predictions with the memo's inner scan size, so -metrics snapshots
	// do not depend on the cache.
	data, done, sched, err := experiments.RunStream(env, arrivals, f.Nodes,
		core.ShardedConfig{Shards: f.Shards, Steal: f.Steal},
		func() core.STP { return core.NewMemoSTP(env.LkT, nil) }, attach)
	if err != nil {
		cliutil.Fatalf("online run failed", "err", err)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "  makespan %.0f s, energy %.0f J, EDP %.4g J·s\n", data.Makespan, data.EnergyJ, data.EDP)
	fmt.Fprintf(w, "  %d shard(s), %d steal(s)\n", sched.Shards(), sched.Steals())
	bs := sched.BarrierStats()
	fmt.Fprintf(w, "  %d exact barrier(s), %d free window(s), %d event(s) elided (%.1f%%)\n\n",
		bs.Barriers, bs.Windows, bs.WindowEvents, 100*bs.ElidedRatio())
	if !perJobTable {
		fmt.Fprintf(w, "%d jobs completed\n", len(done))
		qs := experiments.StreamStats(done, f.Nodes, data.Makespan)
		fmt.Fprintf(w, "  utilization        %.3f\n", qs.Utilization)
		fmt.Fprintf(w, "  queue length       mean %.2f, p95 %.0f, max %d\n", qs.MeanQueueLen, qs.P95QueueLen, qs.MaxQueueLen)
		fmt.Fprintf(w, "  wait p50/p95/p99   %.1f / %.1f / %.1f s\n", qs.WaitP50, qs.WaitP95, qs.WaitP99)
		fmt.Fprintf(w, "  sojourn p50/p95/p99 %.1f / %.1f / %.1f s\n", qs.SojournP50, qs.SojournP95, qs.SojournP99)
	} else {
		fmt.Fprintf(w, "%-4s %-5s %-6s %-5s %9s %9s %9s %5s %s\n",
			"id", "app", "class", "size", "submit", "start", "finish", "node", "config")
		for _, c := range done {
			fmt.Fprintf(w, "%-4d %-5s %-6v %4.0fG %9.0f %9.0f %9.0f %5d %v\n",
				c.ID, c.App, c.Class, c.SizeGB, c.Submitted, c.Started, c.Finished, c.Node, c.Cfg)
		}
	}

	if f.TraceOut != "" {
		if err := writeArtifact(f.TraceOut, tr.WriteChromeTrace); err != nil {
			cliutil.Fatalf("writing -trace-out failed", "err", err)
		}
		slog.Info("wrote Chrome trace", "path", f.TraceOut, "shards", f.Shards)
	}
	if f.TimelineOut != "" {
		// One shard writes its solo timeline; more write per-shard
		// "== shard N ==" sections plus the "== merged ==" global
		// section in canonical merged order.
		if err := writeArtifact(f.TimelineOut, tr.WriteTimeline); err != nil {
			cliutil.Fatalf("writing -timeline-out failed", "err", err)
		}
	}
	if f.EDPReport {
		spans := tr.Spans()
		for i := 0; i < f.Shards; i++ {
			fmt.Fprintf(w, "\n== shard %d ==\n", i)
			if err := tracing.BuildReport(shardSpans(spans, i)).WriteText(w); err != nil {
				cliutil.Fatalf("writing -edp-report failed", "err", err)
			}
		}
		fmt.Fprintf(w, "\n== merged ==\n")
		if err := tracing.BuildReport(spans).WriteText(w); err != nil {
			cliutil.Fatalf("writing -edp-report failed", "err", err)
		}
	}
	if f.QualityReport {
		for i := 0; i < f.Shards; i++ {
			fmt.Fprintf(w, "\n== shard %d ==\n", i)
			if err := aud.Shard(i).Quality(qualityOracle).WriteText(w); err != nil {
				cliutil.Fatalf("writing -quality-report failed", "err", err)
			}
		}
	}
	if f.Metrics {
		all := reg.Snapshot(f.MetricsVolatile)
		for i := 0; i < f.Shards; i++ {
			fmt.Fprintf(w, "\n== shard %d ==\n", i)
			snap := all.Shard(i)
			var werr error
			if f.MetricsJSON {
				werr = snap.WriteJSON(w)
			} else {
				werr = snap.WriteText(w)
			}
			if werr != nil {
				cliutil.Fatalf("writing -metrics snapshot failed", "err", werr)
			}
		}
	}
	if f.HealthReport {
		fmt.Fprintln(w)
		if err := fr.Health().WriteText(w); err != nil {
			cliutil.Fatalf("writing -health-report failed", "err", err)
		}
	}
	if f.FlightOut != "" {
		if err := writeArtifact(f.FlightOut, fr.WriteDumps); err != nil {
			cliutil.Fatalf("writing -flight-out failed", "err", err)
		}
		slog.Info("wrote flight-recorder dumps", "path", f.FlightOut, "dumps", len(fr.Dumps()))
	}
	if srv != nil {
		fmt.Fprintln(os.Stderr, "run finished; endpoints stay up — interrupt (Ctrl-C) to exit")
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		<-ctx.Done()
		stop()
		srv.Close()
	}
}

// shardSpans is shard i's part of a span set, in the order of that
// shard's solo exports.
func shardSpans(spans []tracing.Span, i int) []tracing.Span {
	var out []tracing.Span
	for _, s := range spans {
		if s.Attrs.Shard == i {
			out = append(out, s)
		}
	}
	return out
}
