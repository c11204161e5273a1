package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/tracing"
)

// serveSources bundles the live observability surfaces the -serve mux
// reads at request time. Every slice holds one entry per shard (one
// entry total for a single-shard run); the control plane's one span
// tracer serves every shard. Any entry — or the tracer or the flight
// recorder — may be nil when the flag combination didn't enable it,
// and its endpoints then answer 503 with a hint instead of panicking.
type serveSources struct {
	regs     []*metrics.Registry
	tr       *tracing.Tracer
	auds     []*audit.Log
	qo       audit.Oracle
	fr       *flight.Recorder
	volatile bool
}

func (s serveSources) shards() int { return len(s.regs) }

// shardParam resolves the optional ?shard=N selector: -1 (merged view)
// when absent, the shard index when valid, an error otherwise.
func (s serveSources) shardParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("shard")
	if raw == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 || n >= s.shards() {
		return 0, fmt.Errorf("shard=%q out of range (run has %d shard(s))", raw, s.shards())
	}
	return n, nil
}

// newServeMux builds the -serve observability mux. Every handler reads
// the live sources at request time, so a scrape during the run sees
// the simulation's progress and a scrape after it sees the final
// state. Multi-shard runs serve merged views by default (Prometheus
// families gain a shard label; /trace merges span sets into one
// document with a track group per shard and steal flow arrows; text
// exports concatenate "== shard N ==" sections) and per-shard views via
// ?shard=N — the span exports filter the one tracer's spans to that
// shard and render its solo layout; the flight recorder adds /shards,
// /epochs, /health, and /flight.
func newServeMux(s serveSources) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "ecost-sim observability endpoints (?shard=N selects one shard):\n"+
			"  /metrics      Prometheus text exposition (multi-shard runs label families with shard=\"N\")\n"+
			"  /trace        Chrome trace_event JSON (load in Perfetto / chrome://tracing; merged across shards, one track group per shard)\n"+
			"  /timeline     deterministic text timeline of all spans\n"+
			"  /report       per-job and per-class EDP attribution report\n"+
			"  /decisions    per-decision audit log as JSON Lines\n"+
			"  /quality      decision-quality report (confusion, STP error, regret, drift)\n"+
			"  /shards       per-shard health rows as JSON (flight recorder)\n"+
			"  /epochs       barrier epoch wide-events as JSON Lines (flight recorder)\n"+
			"  /health       shard-health report: steal flow, fairness, queue slope, power skew\n"+
			"  /flight       anomaly-triggered flight dumps as JSON Lines\n"+
			"  /debug/pprof/ Go runtime profiles\n")
	})
	// pick resolves the ?shard selector against a per-shard source
	// slice: (selected indexes, true) or (nil, false) after replying.
	pick := func(w http.ResponseWriter, r *http.Request) ([]int, bool) {
		sel, err := s.shardParam(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, false
		}
		if sel >= 0 {
			return []int{sel}, true
		}
		all := make([]int, s.shards())
		for i := range all {
			all[i] = i
		}
		return all, true
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := pick(w, r)
		if !ok {
			return
		}
		for _, i := range idx {
			if s.regs[i] == nil {
				http.Error(w, "metrics not enabled (run with -metrics or -serve)", http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var err error
		if len(idx) == 1 {
			// One shard selected (or a single-shard run): the classic
			// unlabeled exposition.
			err = s.regs[idx[0]].Snapshot(s.volatile).WritePrometheus(w)
		} else {
			snaps := make([]metrics.Snapshot, len(idx))
			for j, i := range idx {
				snaps[j] = s.regs[i].Snapshot(s.volatile)
			}
			err = metrics.WritePrometheusSharded(w, snaps)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// traced resolves the ?shard selector for a span export: (shard, or
	// -1 for the merged view, and true), or false after replying.
	traced := func(w http.ResponseWriter, r *http.Request) (int, bool) {
		sel, err := s.shardParam(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return 0, false
		}
		if s.tr == nil {
			http.Error(w, "tracing not enabled (run with -trace-out, -edp-report, or -serve)", http.StatusServiceUnavailable)
			return 0, false
		}
		return sel, true
	}
	// sections streams one text export per selected shard, prefixed
	// with "== shard N ==" headers when more than one shard renders
	// (the same merged form -timeline-out writes).
	sections := func(w http.ResponseWriter, idx []int, write func(i int) error) {
		for _, i := range idx {
			if len(idx) > 1 {
				fmt.Fprintf(w, "== shard %d ==\n", i)
			}
			if err := write(i); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
	}
	// spanExport serves a span export: the tracer's own layout for the
	// merged view (the same bytes -trace-out and -timeline-out write),
	// the solo layout of one shard's spans for ?shard=N.
	spanExport := func(ctype string, merged func(*tracing.Tracer, io.Writer) error, solo func(io.Writer, []tracing.Span) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			sel, ok := traced(w, r)
			if !ok {
				return
			}
			w.Header().Set("Content-Type", ctype)
			var err error
			if sel < 0 {
				err = merged(s.tr, w)
			} else {
				err = solo(w, shardSpans(s.tr.Spans(), sel))
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	}
	mux.HandleFunc("/trace", spanExport("application/json", (*tracing.Tracer).WriteChromeTrace, tracing.WriteChromeTrace))
	mux.HandleFunc("/timeline", spanExport("text/plain; charset=utf-8", (*tracing.Tracer).WriteTimeline, tracing.WriteTimeline))
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		sel, ok := traced(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		spans := s.tr.Spans()
		if sel >= 0 {
			spans = shardSpans(spans, sel)
		} else if s.shards() > 1 {
			for i := 0; i < s.shards(); i++ {
				fmt.Fprintf(w, "== shard %d ==\n", i)
				if err := tracing.BuildReport(shardSpans(spans, i)).WriteText(w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
			}
			fmt.Fprintf(w, "== merged ==\n")
		}
		if err := tracing.BuildReport(spans).WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	needAudit := func(w http.ResponseWriter, idx []int) bool {
		for _, i := range idx {
			if !s.auds[i].Enabled() {
				http.Error(w, "decision audit not enabled (run with -quality-report or -serve)", http.StatusServiceUnavailable)
				return false
			}
		}
		return true
	}
	mux.HandleFunc("/decisions", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := pick(w, r)
		if !ok || !needAudit(w, idx) {
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		sections(w, idx, func(i int) error { return s.auds[i].WriteJSONL(w) })
	})
	mux.HandleFunc("/quality", func(w http.ResponseWriter, r *http.Request) {
		idx, ok := pick(w, r)
		if !ok || !needAudit(w, idx) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		sections(w, idx, func(i int) error { return s.auds[i].Quality(s.qo).WriteText(w) })
	})
	needFlight := func(w http.ResponseWriter) bool {
		if s.fr == nil {
			http.Error(w, "flight recorder not enabled (run with -shards 2+ and -serve, -flight-out, or -health-report)", http.StatusServiceUnavailable)
			return false
		}
		return true
	}
	mux.HandleFunc("/shards", func(w http.ResponseWriter, r *http.Request) {
		if !needFlight(w) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := s.fr.WriteShards(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/epochs", func(w http.ResponseWriter, r *http.Request) {
		if !needFlight(w) {
			return
		}
		sel, err := s.shardParam(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		if err := s.fr.WriteEpochs(w, sel); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		if !needFlight(w) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := s.fr.Health().WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		if !needFlight(w) {
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		if err := s.fr.WriteDumps(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// net/http/pprof registers on http.DefaultServeMux in its init; on a
	// private mux the handlers are wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
