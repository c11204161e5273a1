package tracing

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// sampleTracer builds a small two-node, two-job trace with energy.
func sampleTracer() *Tracer {
	tr := New()
	j0 := tr.Record(KindJob, "job wc", nil, 0, 100, Attrs{Job: 0, Node: -1, App: "wc", Class: "C", SizeGB: 5})
	tr.Record(KindWait, "wait", j0, 0, 10, Attrs{Job: 0, Node: -1})
	run := tr.Record(KindRun, "run wc", j0, 10, 100, Attrs{Job: 0, Node: 0, App: "wc", Class: "C", Config: "f2.4 m4", Partner: "nb"})
	run.AddEnergy(900)
	tr.Record(KindMap, "map", run, 10, 70, Attrs{Job: 0, Node: 0}).AddEnergy(600)
	tr.Record(KindReduce, "reduce", run, 70, 100, Attrs{Job: 0, Node: 0}).AddEnergy(300)

	j1 := tr.Record(KindJob, "job nb", nil, 5, 80, Attrs{Job: 1, Node: -1, App: "nb", Class: "I", SizeGB: 1})
	r1 := tr.Record(KindRun, "run nb", j1, 5, 80, Attrs{Job: 1, Node: 0, App: "nb", Class: "I", Config: "f1.6 m2"})
	r1.AddEnergy(300)

	tr.Record(KindNode, "idle", nil, 0, 5, Attrs{Job: -1, Node: 0}).AddEnergy(40)
	tr.Record(KindNode, "solo", nil, 5, 10, Attrs{Job: -1, Node: 0}).AddEnergy(60)
	tr.Record(KindNode, "co-located", nil, 10, 80, Attrs{Job: -1, Node: 0}).AddEnergy(1000)
	tr.Record(KindNode, "solo", nil, 80, 100, Attrs{Job: -1, Node: 0}).AddEnergy(100)
	tr.Record(KindNode, "idle", nil, 0, 100, Attrs{Job: -1, Node: 1}).AddEnergy(100)
	return tr
}

func TestChromeTraceExport(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Ts < 0 || e.Dur < 0 {
				t.Errorf("negative ts/dur in %+v", e)
			}
			if _, ok := e.Args["energy_j"]; !ok {
				t.Errorf("complete event %q missing energy_j", e.Name)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if complete != tr.Len() {
		t.Fatalf("exported %d complete events for %d spans", complete, tr.Len())
	}
	// Process metadata: scheduler plus the two nodes.
	if meta != 3 {
		t.Fatalf("exported %d process_name records, want 3", meta)
	}
	// The run span carries its config and partner and sits on node 0's
	// process (pid 1).
	for _, e := range doc.TraceEvents {
		if e.Name == "run wc" {
			if e.Pid != 1 {
				t.Errorf("run span on pid %d, want 1", e.Pid)
			}
			if e.Args["config"] != "f2.4 m4" || e.Args["partner"] != "nb" {
				t.Errorf("run span args = %v", e.Args)
			}
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := sampleTracer().WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("chrome export not byte-stable:\n%s\n---\n%s", a, b)
	}
}

func TestTimelineExport(t *testing.T) {
	tr := sampleTracer()
	tr.Record(KindJob, "job open", nil, 0, math.NaN(), Attrs{Job: 2, Node: -1, App: "pr"})
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header (2 lines) + one line per span.
	if got, want := len(lines), tr.Len()+2; got != want {
		t.Fatalf("timeline has %d lines, want %d:\n%s", got, want, out)
	}
	if !strings.Contains(out, "(open)") {
		t.Fatalf("open span not marked:\n%s", out)
	}
	if !strings.Contains(out, "partner=nb") || !strings.Contains(out, "cfg=f2.4 m4") {
		t.Fatalf("attributes missing:\n%s", out)
	}
	// Start times must be non-decreasing down the page.
	prev := math.Inf(-1)
	for _, ln := range lines[2:] {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		start, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("unparseable line %q: %v", ln, err)
		}
		if start < prev {
			t.Fatalf("timeline not sorted at %q", ln)
		}
		prev = start
	}
	var buf2 bytes.Buffer
	if err := tr.WriteTimeline(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("timeline not byte-stable across renders")
	}
}

func TestReportRollup(t *testing.T) {
	rep := sampleTracer().Report()
	if len(rep.Jobs) != 2 {
		t.Fatalf("report has %d jobs: %+v", len(rep.Jobs), rep.Jobs)
	}
	j0 := rep.Jobs[0]
	if j0.App != "wc" || j0.Class != "C" || j0.WaitS != 10 || j0.RunS != 90 {
		t.Fatalf("job 0 row = %+v", j0)
	}
	if j0.EnergyJ != 900 || j0.EDP != 900*90 {
		t.Fatalf("job 0 energy/EDP = %v / %v", j0.EnergyJ, j0.EDP)
	}
	if j0.MapS != 60 || j0.ReduceS != 30 {
		t.Fatalf("job 0 phases = map %v reduce %v", j0.MapS, j0.ReduceS)
	}
	if rep.AttributedJ != 1200 {
		t.Fatalf("attributed = %v, want 1200", rep.AttributedJ)
	}
	if rep.Phases.IdleJ != 140 || rep.Phases.SoloJ != 160 || rep.Phases.CoJ != 1000 {
		t.Fatalf("phase split = %+v", rep.Phases)
	}
	if len(rep.Classes) != 2 || rep.Classes[0].Class != "C" || rep.Classes[0].EDP != j0.EDP {
		t.Fatalf("class rollup = %+v", rep.Classes)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job", "class", "occupancy phase", "attributed to jobs"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report text missing %q:\n%s", want, buf.String())
		}
	}
}
