package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/tracing"
)

// serveFixture builds a mux over a small hand-made registry and tracer,
// avoiding the expensive environment build.
func serveFixture(t *testing.T) *httptest.Server {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("sched.submitted").Add(3)
	reg.Gauge("power.energy_j.total").Set(1234.5)
	h := reg.Histogram("sched.wait_s", metrics.ExpBuckets(16, 2, 8))
	h.Observe(12)
	h.Observe(40)

	tr := tracing.New()
	job := tr.Record(tracing.KindJob, "job 0 wc", nil, 0, 100,
		tracing.Attrs{Job: 0, Node: 0, App: "wc", Class: "CPU", SizeGB: 5})
	run := tr.Record(tracing.KindRun, "run wc", job, 10, 100,
		tracing.Attrs{Job: 0, Node: 0, App: "wc", Class: "CPU", SizeGB: 5, Config: "m4f2.4"})
	run.SetEnergy(900)
	node := tr.Record(tracing.KindNode, "solo", nil, 0, 100, tracing.Attrs{Job: -1, Node: 0})
	node.SetEnergy(1100)

	aud := audit.NewLog(audit.DriftConfig{})
	aud.Submit(0, "wc", 5, "C", "C", 0)
	aud.Place(0, 0, 10, audit.BranchReserve, -1)
	aud.Tune(0, "LkT", "m4f2.4", audit.TuneSolo, audit.Expectation{EDP: 5000, TimeS: 90, PowerW: 10})
	aud.AddEnergy(0, 900)
	aud.Complete(0, 100)

	srv := httptest.NewServer(newServeMux(serveSources{shards: 1, reg: reg, tr: tr, aud: aud}))
	t.Cleanup(srv.Close)
	return srv
}

// serveShardedFixture builds a mux over a hand-made registry two shards
// recorded into and a flight recorder fed one synthetic epoch.
func serveShardedFixture(t *testing.T) *httptest.Server {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Shard(0).Counter("sched.submitted").Add(3)
	reg.Shard(1).Counter("sched.submitted").Add(5)
	fr := flight.New()
	fr.Attach([]int{2, 2}, nil)
	fr.Steal(1, 0)
	fr.RecordEpoch(0, 10, []flight.ShardStat{
		{Queue: 2, Free: 1, Active: 1, EnergyJ: 50},
		{Queue: 1, Free: 2, EnergyJ: 30},
	})
	srv := httptest.NewServer(newServeMux(serveSources{shards: 2, reg: reg, fr: fr}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsEndpoint(t *testing.T) {
	srv := serveFixture(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", code, body)
	}
	for _, want := range []string{
		"# TYPE ecost_sched_submitted counter",
		"ecost_sched_submitted 3",
		"# TYPE ecost_power_energy_j_total gauge",
		"# TYPE ecost_sched_wait_s summary",
		"ecost_sched_wait_s_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestServeTraceEndpoint(t *testing.T) {
	srv := serveFixture(t)
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("/trace has no complete events")
	}
}

func TestServeReportAndTimeline(t *testing.T) {
	srv := serveFixture(t)
	if code, body := get(t, srv.URL+"/report"); code != http.StatusOK || !strings.Contains(body, "wc") {
		t.Errorf("/report status %d body:\n%s", code, body)
	}
	if code, body := get(t, srv.URL+"/timeline"); code != http.StatusOK || !strings.Contains(body, "run wc") {
		t.Errorf("/timeline status %d body:\n%s", code, body)
	}
	if code, body := get(t, srv.URL+"/"); code != http.StatusOK || !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("index status %d body:\n%s", code, body)
	}
	if code, _ := get(t, srv.URL+"/nonsense"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

// TestServePprofProfile is the acceptance check that the CPU profile
// endpoint returns a non-empty pprof payload.
func TestServePprofProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profile endpoint samples for a wall-clock second")
	}
	srv := serveFixture(t)
	code, body := get(t, srv.URL+"/debug/pprof/profile?seconds=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/profile status %d: %s", code, body)
	}
	if len(body) == 0 {
		t.Fatal("/debug/pprof/profile returned an empty body")
	}
	if code, body := get(t, srv.URL+"/debug/pprof/"); code != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/pprof/ index status %d, %d bytes", code, len(body))
	}
}

// TestServeDecisionsAndQuality covers the audit endpoints: /decisions
// streams the log as JSON Lines, /quality renders the decision-quality
// report (with empty oracle sections — the fixture passes no oracle).
func TestServeDecisionsAndQuality(t *testing.T) {
	srv := serveFixture(t)
	code, body := get(t, srv.URL+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("/decisions status %d: %s", code, body)
	}
	var dec struct {
		Job    int    `json:"job"`
		App    string `json:"app"`
		Branch string `json:"branch"`
		Done   bool   `json:"done"`
	}
	line := strings.TrimSpace(body)
	if err := json.Unmarshal([]byte(line), &dec); err != nil {
		t.Fatalf("/decisions line is not JSON: %v\n%s", err, line)
	}
	if dec.Job != 0 || dec.App != "wc" || dec.Branch != "reserve" || !dec.Done {
		t.Errorf("/decisions record mismatch: %+v", dec)
	}

	code, body = get(t, srv.URL+"/quality")
	if code != http.StatusOK {
		t.Fatalf("/quality status %d: %s", code, body)
	}
	for _, want := range []string{"decision quality:", "classifier confusion", "drift (CUSUM"} {
		if !strings.Contains(body, want) {
			t.Errorf("/quality missing %q in:\n%s", want, body)
		}
	}
}

// TestServeDisabledSources checks the 503 hints when a source is off.
func TestServeDisabledSources(t *testing.T) {
	srv := httptest.NewServer(newServeMux(serveSources{shards: 1}))
	defer srv.Close()
	for _, path := range []string{
		"/metrics", "/trace", "/timeline", "/report", "/decisions", "/quality",
		"/shards", "/epochs", "/health", "/flight",
	} {
		if code, _ := get(t, srv.URL+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s with nil sources: status %d, want 503", path, code)
		}
	}
}

// TestServeSharded covers the multi-shard mux: merged shard-labeled
// /metrics, per-shard selection via ?shard=N, range validation, and
// the flight-recorder endpoints.
func TestServeSharded(t *testing.T) {
	srv := serveShardedFixture(t)

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", code, body)
	}
	for _, want := range []string{
		`ecost_sched_submitted{shard="0"} 3`,
		`ecost_sched_submitted{shard="1"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// One selected shard renders the classic unlabeled exposition.
	code, body = get(t, srv.URL+"/metrics?shard=1")
	if code != http.StatusOK || !strings.Contains(body, "ecost_sched_submitted 5") {
		t.Errorf("/metrics?shard=1 status %d body:\n%s", code, body)
	}
	if strings.Contains(body, `shard="`) {
		t.Errorf("/metrics?shard=1 still labeled:\n%s", body)
	}
	if code, body := get(t, srv.URL+"/metrics?shard=9"); code != http.StatusBadRequest {
		t.Errorf("/metrics?shard=9 status %d body:\n%s", code, body)
	}
	if code, body := get(t, srv.URL+"/epochs?shard=x"); code != http.StatusBadRequest {
		t.Errorf("/epochs?shard=x status %d body:\n%s", code, body)
	}

	code, body = get(t, srv.URL+"/health")
	if code != http.StatusOK || !strings.Contains(body, "# shard health") {
		t.Fatalf("/health status %d body:\n%s", code, body)
	}
	if !strings.Contains(body, "steals") {
		t.Errorf("/health missing steal summary:\n%s", body)
	}

	code, body = get(t, srv.URL+"/epochs")
	if code != http.StatusOK {
		t.Fatalf("/epochs status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/epochs has %d records, want one per shard:\n%s", len(lines), body)
	}
	var rec struct {
		Epoch int `json:"epoch"`
		Shard int `json:"shard"`
		Queue int `json:"queue"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("/epochs line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Epoch != 0 || rec.Shard != 0 || rec.Queue != 2 {
		t.Errorf("/epochs record mismatch: %+v", rec)
	}
	code, body = get(t, srv.URL+"/epochs?shard=1")
	if code != http.StatusOK || len(strings.Split(strings.TrimSpace(body), "\n")) != 1 {
		t.Errorf("/epochs?shard=1 status %d body:\n%s", code, body)
	}

	code, body = get(t, srv.URL+"/shards")
	if code != http.StatusOK {
		t.Fatalf("/shards status %d: %s", code, body)
	}
	var rows []struct {
		Shard     int   `json:"shard"`
		StealsIn  int64 `json:"steals_in"`
		StealsOut int64 `json:"steals_out"`
	}
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/shards is not valid JSON: %v\n%s", err, body)
	}
	if len(rows) != 2 || rows[0].StealsIn != 1 || rows[1].StealsOut != 1 {
		t.Errorf("/shards rows mismatch: %+v", rows)
	}

	// No anomaly fired, so the flight dump stream is empty but served.
	if code, body := get(t, srv.URL+"/flight"); code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("/flight status %d body:\n%s", code, body)
	}
}

// shardedTracer is one tracer holding two shards' spans: a node span
// each, a run on shard 0, and a steal pair linking the shards.
func shardedTracer() *tracing.Tracer {
	tr := tracing.New()
	tr.Record(tracing.KindNode, "solo", nil, 0, 100, tracing.Attrs{Job: -1, Node: 0}).SetEnergy(60)
	tr.Record(tracing.KindNode, "solo", nil, 0, 100, tracing.Attrs{Job: -1, Node: 1, Shard: 1}).SetEnergy(40)
	tr.Record(tracing.KindRun, "run wc", nil, 10, 90,
		tracing.Attrs{Job: 0, Node: 0, App: "wc", Class: "CPU", SizeGB: 5, Config: "m4f2.4"}).SetEnergy(60)
	tr.Record(tracing.KindStealOut, "steal_out", nil, 20, 20,
		tracing.Attrs{Job: 1, Node: -1, App: "wc", Detail: "to=shard1", Link: 1})
	tr.Record(tracing.KindStealIn, "steal_in", nil, 20, 20,
		tracing.Attrs{Job: 1, Node: -1, App: "wc", Detail: "from=shard0", Link: 1, Shard: 1})
	return tr
}

// TestServeShardedTrace covers the sharded trace endpoints: the merged
// /trace and /timeline views (flow-linked steal pair, per-shard
// sections), and ?shard=N selection byte-identical to the solo export
// of that shard's spans.
func TestServeShardedTrace(t *testing.T) {
	tr := shardedTracer()
	srv := httptest.NewServer(newServeMux(serveSources{shards: 2, tr: tr}))
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("merged /trace status %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID int    `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("merged /trace is not valid JSON: %v", err)
	}
	var flowS, flowF int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			flowS++
		case "f":
			flowF++
		}
	}
	if flowS != 1 || flowF != 1 {
		t.Fatalf("merged /trace has %d flow starts and %d finishes, want 1/1", flowS, flowF)
	}

	// ?shard=N is byte-identical to the solo export of the shard's spans.
	for i := 0; i < 2; i++ {
		spans := shardSpans(tr.Spans(), i)
		var want strings.Builder
		if err := tracing.WriteChromeTrace(&want, spans); err != nil {
			t.Fatal(err)
		}
		code, body := get(t, srv.URL+fmt.Sprintf("/trace?shard=%d", i))
		if code != http.StatusOK || body != want.String() {
			t.Errorf("/trace?shard=%d diverges from solo export (status %d):\n%s\nvs\n%s", i, code, body, want.String())
		}
		want.Reset()
		if err := tracing.WriteTimeline(&want, spans); err != nil {
			t.Fatal(err)
		}
		code, body = get(t, srv.URL+fmt.Sprintf("/timeline?shard=%d", i))
		if code != http.StatusOK || body != want.String() {
			t.Errorf("/timeline?shard=%d diverges from solo export (status %d):\n%s\nvs\n%s", i, code, body, want.String())
		}
	}

	code, body = get(t, srv.URL+"/timeline")
	if code != http.StatusOK {
		t.Fatalf("merged /timeline status %d: %s", code, body)
	}
	for _, want := range []string{"== shard 0 ==", "== shard 1 ==", "== merged ==", "steal_out", "link=1"} {
		if !strings.Contains(body, want) {
			t.Errorf("merged /timeline missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv.URL+"/report")
	if code != http.StatusOK {
		t.Fatalf("merged /report status %d: %s", code, body)
	}
	for _, want := range []string{"== shard 0 ==", "== merged ==", "# ecost EDP attribution"} {
		if !strings.Contains(body, want) {
			t.Errorf("merged /report missing %q:\n%s", want, body)
		}
	}
	if code, body := get(t, srv.URL+"/trace?shard=5"); code != http.StatusBadRequest {
		t.Errorf("/trace?shard=5 status %d body:\n%s", code, body)
	}
}

// FuzzServeShardSelector sends fuzzed raw ?shard= values to every
// endpoint that reads the selector, over one fully populated 2-shard
// mux: one registry and one audit log both shards record into. A
// request may be served (200), rejected (400) or find its source off
// (503) — never a 500 or a panic — and a 200 for a shard index must
// carry exactly that shard's direct export.
func FuzzServeShardSelector(f *testing.F) {
	reg := metrics.NewRegistry()
	aud := audit.NewLog(audit.DriftConfig{})
	for i := 0; i < 2; i++ {
		reg.Shard(i).Counter("sched.submitted").Add(int64(3 + i))
		aud.Shard(i).Submit(i, "wc", 5, "C", "C", 0)
		aud.Shard(i).Place(i, i, 10, audit.BranchReserve, -1)
	}
	tr := shardedTracer()
	fr := flight.New()
	fr.Attach([]int{1, 1}, nil)
	fr.RecordEpoch(0, 10, []flight.ShardStat{{Queue: 2, Free: 1, EnergyJ: 50}, {Queue: 1, Free: 2, EnergyJ: 30}})
	mux := newServeMux(serveSources{shards: 2, reg: reg, tr: tr, aud: aud, fr: fr})

	// direct renders shard i's export for each endpoint without the mux.
	direct := map[string]func(w io.Writer, i int) error{
		"/metrics": func(w io.Writer, i int) error { return reg.Snapshot(false).Shard(i).WritePrometheus(w) },
		"/trace": func(w io.Writer, i int) error {
			return tracing.WriteChromeTrace(w, shardSpans(tr.Spans(), i))
		},
		"/timeline": func(w io.Writer, i int) error {
			return tracing.WriteTimeline(w, shardSpans(tr.Spans(), i))
		},
		"/report": func(w io.Writer, i int) error {
			return tracing.BuildReport(shardSpans(tr.Spans(), i)).WriteText(w)
		},
		"/decisions": func(w io.Writer, i int) error { return aud.Shard(i).WriteJSONL(w) },
		"/quality":   func(w io.Writer, i int) error { return aud.Shard(i).Quality(nil).WriteText(w) },
		"/epochs":    func(w io.Writer, i int) error { return fr.WriteEpochs(w, i) },
	}
	for _, seed := range []string{"", "0", "1", "2", "-1", "+1", "01", "x", " 1", "1e0", "9223372036854775808", "\x00"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for path, write := range direct {
			req := httptest.NewRequest(http.MethodGet, path+"?shard="+url.QueryEscape(raw), nil)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
			default:
				t.Fatalf("%s?shard=%q: status %d:\n%s", path, raw, rec.Code, rec.Body.String())
			}
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 || n >= 2 {
				if rec.Code == http.StatusOK && raw != "" {
					t.Fatalf("%s?shard=%q: served a selector that names no shard", path, raw)
				}
				continue
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s?shard=%q: status %d for shard %d:\n%s", path, raw, rec.Code, n, rec.Body.String())
			}
			var want strings.Builder
			if err := write(&want, n); err != nil {
				t.Fatal(err)
			}
			if rec.Body.String() != want.String() {
				t.Fatalf("%s?shard=%q diverges from shard %d's direct export:\n%s\nvs\n%s", path, raw, n, rec.Body.String(), want.String())
			}
		}
	})
}
