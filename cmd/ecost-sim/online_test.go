package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/experiments"
)

// ws4OnlineRun runs what `ecost-sim -scenario WS4 -online -metrics
// -edp-report -quality-report -timeline-out F` runs (a fresh
// environment, the default -nodes 4 and -seed 42, one shard) and
// returns the runner's output followed by the timeline file.
func ws4OnlineRun(t *testing.T) []byte {
	t.Helper()
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := core.Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	arrivals, header, perJobTable := buildStream(wl, false, "WS4", "", "", 0, 0, 42, 4)
	timeline := filepath.Join(t.TempDir(), "timeline.txt")
	var out bytes.Buffer
	runOnline(&out, env, runFlags{Online: true, Nodes: 4, Shards: 1,
		Metrics: true, EDPReport: true, QualityReport: true, TimelineOut: timeline,
	}, arrivals, header, perJobTable)
	tl, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString("--- timeline-out\n")
	out.Write(tl)
	return out.Bytes()
}

// TestOnlineGolden pins the single-shard output formats — the run
// summary, the per-shard and merged EDP reports, the quality report,
// the metrics snapshot, and the span timeline — to
// testdata/ws4_online.golden at GOMAXPROCS 1 and 4.
func TestOnlineGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/ws4_online.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := ws4OnlineRun(t)
		runtime.GOMAXPROCS(old)
		if bytes.Equal(got, want) {
			continue
		}
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("GOMAXPROCS=%d: line %d diverged from testdata/ws4_online.golden:\n  got  %q\n  want %q", procs, i+1, g[i], w[i])
			}
		}
		t.Fatalf("GOMAXPROCS=%d: %d lines, testdata/ws4_online.golden has %d", procs, len(g), len(w))
	}
}
