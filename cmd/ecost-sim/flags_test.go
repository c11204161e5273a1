package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagContradictions covers every flag-combination rejection path
// of the CLI in one table: each contradiction must produce a usage
// message (main exits with cliutil.ExitUsage on any non-empty result),
// and each coherent combination must pass.
func TestFlagContradictions(t *testing.T) {
	cases := []struct {
		name  string
		flags runFlags
		want  string // substring of the usage message; "" = coherent
	}{
		{"defaults", runFlags{}, ""},
		{"online alone", runFlags{Online: true}, ""},
		// Nodes 0 in a table entry means "not under test" (the loop fills
		// the flag default in); the -nodes<1 branch is value-independent,
		// so the negative entries cover -nodes 0 as well.
		{"nonsense nodes offline", runFlags{Nodes: -4}, "-nodes must be a positive"},
		{"nonsense nodes online", runFlags{Online: true, Nodes: -1}, "-nodes must be a positive"},
		{"negative jobs", runFlags{Online: true, Jobs: -1}, "-jobs cannot be negative"},
		{"jobs offline", runFlags{Jobs: 2000}, "-jobs requires the online scheduler"},
		{"jobs online", runFlags{Online: true, Jobs: 2000}, ""},
		// -arrival is a finite mean gap the scenario grammar accepts, and
		// only workload streams of the online scheduler read it.
		{"arrival online", runFlags{Online: true, Arrival: 60}, ""},
		{"arrival offline", runFlags{Arrival: 60}, "-arrival requires the online scheduler"},
		{"arrival negative", runFlags{Online: true, Arrival: -1}, "-arrival must be a finite, non-negative"},
		{"arrival NaN", runFlags{Online: true, Arrival: math.NaN()}, "-arrival must be a finite, non-negative"},
		{"arrival -Inf", runFlags{Online: true, Arrival: math.Inf(-1)}, "-arrival must be a finite, non-negative"},
		{"arrival +Inf", runFlags{Online: true, Arrival: math.Inf(1)}, "-arrival must be a finite, non-negative"},
		{"arrival past the scenario bound", runFlags{Online: true, Arrival: 1e16}, "-arrival: scenario: bad arrivals"},
		{"arrival at the scenario bound", runFlags{Online: true, Arrival: 1e15}, ""},
		// A nonsense value is reported before the missing -online.
		{"arrival negative offline", runFlags{Arrival: -1}, "-arrival must be a finite, non-negative"},
		// Value checks outrank combination checks: a nonsense -nodes is
		// reported even when an online-only flag is also missing -online.
		{"nonsense nodes and jobs offline", runFlags{Nodes: -4, Jobs: 10}, "-nodes must be a positive"},
		{"metrics json without metrics", runFlags{MetricsJSON: true}, "-metrics-json"},
		{"metrics volatile without metrics", runFlags{MetricsVolatile: true}, "-metrics-volatile"},
		{"metrics json with metrics", runFlags{Online: true, Metrics: true, MetricsJSON: true}, ""},
		{"metrics volatile with metrics", runFlags{Online: true, Metrics: true, MetricsVolatile: true}, ""},
		{"gen scenario online", runFlags{Online: true, ScenarioGen: true}, ""},
		{"gen scenario with arrivals", runFlags{Online: true, ScenarioGen: true, Arrivals: "poisson:60"}, ""},
		{"gen scenario with jobs", runFlags{Online: true, ScenarioGen: true, Jobs: 100}, "-jobs duplicates the jobs= clause"},
		{"gen scenario with arrival", runFlags{Online: true, ScenarioGen: true, Arrival: 60}, "-arrival shapes workload streams"},
		{"arrivals without gen scenario", runFlags{Online: true, Arrivals: "poisson:60"}, "-arrivals retunes a gen: -scenario"},
		{"record online", runFlags{Online: true, TraceRecord: "t.jsonl"}, ""},
		{"record offline", runFlags{TraceRecord: "t.jsonl"}, "-trace-record requires the online scheduler"},
		{"replay online", runFlags{Online: true, TraceReplay: "t.jsonl"}, ""},
		{"replay offline", runFlags{TraceReplay: "t.jsonl"}, "-trace-replay requires the online scheduler"},
		{"replay with gen scenario", runFlags{Online: true, TraceReplay: "t.jsonl", ScenarioGen: true}, "drop the gen: -scenario"},
		{"replay with record", runFlags{Online: true, TraceReplay: "t.jsonl", TraceRecord: "u.jsonl"}, "drop -trace-record"},
		{"replay with jobs", runFlags{Online: true, TraceReplay: "t.jsonl", Jobs: 100}, "cannot resize a -trace-replay recording"},
		{"replay with arrival", runFlags{Online: true, TraceReplay: "t.jsonl", Arrival: 60}, "drop -arrival/-arrivals"},
		{"replay with arrivals", runFlags{Online: true, TraceReplay: "t.jsonl", Arrivals: "poisson:60"}, "drop -arrival/-arrivals"},
		{"trace-out offline", runFlags{TraceOut: "t.json"}, "-trace-out requires the online scheduler"},
		{"timeline-out offline", runFlags{TimelineOut: "t.txt"}, "-timeline-out requires the online scheduler"},
		{"edp-report offline", runFlags{EDPReport: true}, "-edp-report requires the online scheduler"},
		{"quality-report offline", runFlags{QualityReport: true}, "-quality-report requires the online scheduler"},
		{"serve offline", runFlags{ServeAddr: ":0"}, "-serve requires the online scheduler"},
		{"trace-out online", runFlags{Online: true, TraceOut: "t.json"}, ""},
		{"timeline-out online", runFlags{Online: true, TimelineOut: "t.txt"}, ""},
		{"edp-report online", runFlags{Online: true, EDPReport: true}, ""},
		{"quality-report online", runFlags{Online: true, QualityReport: true}, ""},
		{"serve online", runFlags{Online: true, ServeAddr: ":0"}, ""},
		{"everything online", runFlags{
			Online: true, Metrics: true, MetricsJSON: true, MetricsVolatile: true,
			TraceOut: "t.json", TimelineOut: "t.txt", EDPReport: true,
			QualityReport: true, ServeAddr: ":0",
		}, ""},
		// The metrics-shape check wins over the online-only check: it is
		// about a missing -metrics, not a missing -online.
		{"json and trace-out both wrong", runFlags{MetricsJSON: true, TraceOut: "t.json"}, "-metrics-json"},
		// Sharded control plane: -shards must be explicit, positive,
		// bounded by the cluster size, and online; -steal needs a victim.
		{"shards offline", runFlags{Shards: 4, ShardsSet: true, Nodes: 8}, "-shards requires the online scheduler"},
		// ShardsSet deliberately false: with it set, the -shards rejection
		// fires first (onlineOnly reports flags in listing order).
		{"steal offline", runFlags{Steal: true, Shards: 2, Nodes: 8}, "-steal requires the online scheduler"},
		{"shards online", runFlags{Online: true, Shards: 4, ShardsSet: true, Nodes: 8}, ""},
		{"shards zero", runFlags{Online: true, Shards: 0, ShardsSet: true, Nodes: 8}, "-shards must be at least 1"},
		{"shards negative", runFlags{Online: true, Shards: -2, ShardsSet: true, Nodes: 8}, "-shards must be at least 1"},
		{"shards exceed nodes", runFlags{Online: true, Shards: 16, ShardsSet: true, Nodes: 8}, "-shards cannot exceed -nodes"},
		{"shards equal nodes", runFlags{Online: true, Shards: 8, ShardsSet: true, Nodes: 8}, ""},
		{"steal single shard", runFlags{Online: true, Steal: true, Shards: 1, ShardsSet: true, Nodes: 8}, "-steal migrates queued jobs between shards"},
		{"steal default shards", runFlags{Online: true, Steal: true, Shards: 1, Nodes: 8}, "-steal migrates queued jobs between shards"},
		{"steal with shards", runFlags{Online: true, Steal: true, Shards: 2, ShardsSet: true, Nodes: 8}, ""},
		// Sharded tracing: each shard records its own span set and
		// -trace-out merges them deterministically, so the old
		// shards-vs-trace-out contradiction is gone.
		{"shards with trace-out", runFlags{Online: true, Shards: 2, ShardsSet: true, Nodes: 8, TraceOut: "t.json"}, ""},
		{"shards with trace-out and steal", runFlags{Online: true, Shards: 4, ShardsSet: true, Nodes: 8, Steal: true, TraceOut: "t.json"}, ""},
		// -serve works across shards since the mux grew merged + ?shard=N
		// views; the old single-registry contradiction is gone.
		{"shards with serve", runFlags{Online: true, Shards: 2, ShardsSet: true, Nodes: 8, ServeAddr: ":0"}, ""},
		{"single shard with trace-out", runFlags{Online: true, Shards: 1, ShardsSet: true, Nodes: 8, TraceOut: "t.json"}, ""},
		{"shards with timeline and metrics", runFlags{
			Online: true, Shards: 4, ShardsSet: true, Nodes: 8, Steal: true,
			Metrics: true, TimelineOut: "t.txt", QualityReport: true, EDPReport: true,
		}, ""},
		{"everything sharded", runFlags{
			Online: true, Shards: 4, ShardsSet: true, Nodes: 8, Steal: true,
			Metrics: true, TraceOut: "t.json", TimelineOut: "t.txt", EDPReport: true,
			QualityReport: true, ServeAddr: ":0", FlightOut: "f.jsonl", HealthReport: true,
		}, ""},
		// Flight recorder flags record per-shard barrier telemetry; every
		// online run has barriers, so they need -online and nothing more.
		{"flight-out offline", runFlags{FlightOut: "f.jsonl", Shards: 2, ShardsSet: true, Nodes: 8}, "-shards requires the online scheduler"},
		{"flight-out single shard", runFlags{Online: true, FlightOut: "f.jsonl", Shards: 1, Nodes: 8}, ""},
		{"flight-out with shards", runFlags{Online: true, FlightOut: "f.jsonl", Shards: 2, ShardsSet: true, Nodes: 8}, ""},
		{"health-report offline", runFlags{HealthReport: true, Shards: 2, Nodes: 8}, "-health-report requires the online scheduler"},
		{"health-report single shard", runFlags{Online: true, HealthReport: true, Shards: 1, Nodes: 8}, ""},
		{"health-report with shards", runFlags{Online: true, HealthReport: true, Shards: 2, ShardsSet: true, Nodes: 8}, ""},
		{"flight and health with serve", runFlags{
			Online: true, Shards: 4, ShardsSet: true, Nodes: 8, Steal: true,
			FlightOut: "f.jsonl", HealthReport: true, ServeAddr: ":0", Metrics: true,
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.flags
			if f.Nodes == 0 {
				f.Nodes = 4 // the flag's default; 0 in a table entry means "not under test"
			}
			got := f.contradiction()
			if tc.want == "" && got != "" {
				t.Fatalf("coherent flags rejected: %q", got)
			}
			if tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("contradiction = %q, want substring %q", got, tc.want)
			}
		})
	}
	// Completeness guard: every online-only flag is represented in the
	// rejection table above.
	all := runFlags{Jobs: 1, Arrival: 1, TraceRecord: "x", TraceReplay: "x", TraceOut: "x", TimelineOut: "x", EDPReport: true, QualityReport: true, ServeAddr: "x", ShardsSet: true, Steal: true, FlightOut: "x", HealthReport: true}
	if got := len(all.onlineOnly()); got != 13 {
		t.Fatalf("onlineOnly lists %d flags; update TestFlagContradictions", got)
	}
}

// TestUnwritableOutput covers the fail-fast probe for path-writing
// flags: a target in a missing directory, or whose "directory" is a
// plain file, is rejected at validation time (main exits 2) instead of
// erroring on the first dump after a long run.
func TestUnwritableOutput(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "no", "such", "dir", "out.json")
	underFile := filepath.Join(file, "out.json")
	ok := filepath.Join(dir, "out.json")

	cases := []struct {
		name  string
		flags runFlags
		want  string // substring of the usage message; "" = writable
	}{
		{"no outputs", runFlags{Online: true}, ""},
		{"relative path", runFlags{Online: true, TraceOut: "t.json"}, ""},
		{"writable dir", runFlags{Online: true, TraceOut: ok, TimelineOut: ok, FlightOut: ok}, ""},
		{"trace-out missing dir", runFlags{Online: true, TraceOut: missing}, "-trace-out"},
		{"timeline-out missing dir", runFlags{Online: true, TimelineOut: missing}, "-timeline-out"},
		{"flight-out missing dir", runFlags{Online: true, FlightOut: missing}, "-flight-out"},
		{"dir is a file", runFlags{Online: true, TraceOut: underFile}, "not a directory"},
		// Report order follows outputPaths: -flight-out first.
		{"first failure reported", runFlags{Online: true, FlightOut: missing, TraceOut: missing}, "-flight-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.flags.unwritableOutput()
			if tc.want == "" && got != "" {
				t.Fatalf("writable outputs rejected: %q", got)
			}
			if tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("unwritableOutput = %q, want substring %q", got, tc.want)
			}
		})
	}
	// Every probed flag corresponds to a real output path, and the probe
	// leaves no droppings behind in a writable directory.
	if n := len(runFlags{}.outputPaths()); n != 3 {
		t.Fatalf("outputPaths lists %d flags; update TestUnwritableOutput", n)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("probe left files behind in %s: %v", dir, ents)
	}
}
