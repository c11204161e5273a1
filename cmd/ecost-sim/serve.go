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
// reads at request time: the control plane's shard count and its one
// sink of each kind. Any sink may be nil when the flag combination
// didn't enable it, and its endpoints then answer 503 with a hint
// instead of panicking.
type serveSources struct {
	shards   int
	reg      *metrics.Registry
	tr       *tracing.Tracer
	aud      *audit.Log
	qo       audit.Oracle
	fr       *flight.Recorder
	volatile bool
}

// shardParam resolves the optional ?shard=N selector: -1 (merged view)
// when absent, the shard index when valid, an error otherwise.
func (s serveSources) shardParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("shard")
	if raw == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 || n >= s.shards {
		return 0, fmt.Errorf("shard=%q out of range (run has %d shard(s))", raw, s.shards)
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
			"  /epochs       per-epoch wide-events as JSON Lines (flight recorder)\n"+
			"  /health       shard-health report: steal flow, fairness, queue slope, power skew\n"+
			"  /flight       anomaly-triggered flight dumps as JSON Lines\n"+
			"  /debug/pprof/ Go runtime profiles\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		sel, err := s.shardParam(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.reg == nil {
			http.Error(w, "metrics not enabled (run with -metrics or -serve)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The whole registry renders shard-labeled families when it
		// holds several shards; one shard renders the classic
		// unlabeled exposition.
		snap := s.reg.Snapshot(s.volatile)
		if sel >= 0 {
			snap = snap.Shard(sel)
		}
		if err := snap.WritePrometheus(w); err != nil {
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
		} else if s.shards > 1 {
			for i := 0; i < s.shards; i++ {
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
	// audited serves an audit export: shard N's for ?shard=N, otherwise
	// every shard's, each under an "== shard N ==" header when the run
	// has more than one (the same merged form -timeline-out writes).
	audited := func(ctype string, write func(l *audit.Log, w io.Writer) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			sel, err := s.shardParam(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if !s.aud.Enabled() {
				http.Error(w, "decision audit not enabled (run with -quality-report or -serve)", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", ctype)
			lo, hi := 0, s.shards
			if sel >= 0 {
				lo, hi = sel, sel+1
			}
			for i := lo; i < hi; i++ {
				if hi-lo > 1 {
					fmt.Fprintf(w, "== shard %d ==\n", i)
				}
				if err := write(s.aud.Shard(i), w); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
			}
		}
	}
	mux.HandleFunc("/decisions", audited("application/jsonl", (*audit.Log).WriteJSONL))
	mux.HandleFunc("/quality", audited("text/plain; charset=utf-8", func(l *audit.Log, w io.Writer) error {
		return l.Quality(s.qo).WriteText(w)
	}))
	needFlight := func(w http.ResponseWriter) bool {
		if s.fr == nil {
			http.Error(w, "flight recorder not enabled (run with -serve, -flight-out, or -health-report)", http.StatusServiceUnavailable)
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
