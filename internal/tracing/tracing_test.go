package tracing

import (
	"math"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Record(KindJob, "job", nil, 0, math.NaN(), Attrs{Job: 1})
	if sp != nil {
		t.Fatal("nil tracer handed out a non-nil span")
	}
	// Every span operation must tolerate nil.
	sp.FinishAt(5)
	sp.AddEnergy(10)
	sp.SetEnergy(10)
	sp.SetConfig("cfg")
	sp.SetPartner("p")
	if got := sp.Snapshot(); got.Parent != -1 {
		t.Fatalf("nil span snapshot = %+v", got)
	}
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer claims spans")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New()
	job := tr.Record(KindJob, "job wc", nil, 10, math.NaN(), Attrs{Job: 3, Node: -1, App: "wc", Class: "C", SizeGB: 5})
	wait := tr.Record(KindWait, "wait", job, 10, math.NaN(), Attrs{Job: 3, Node: -1})
	if job.Snapshot().Parent != -1 || wait.Snapshot().Parent != job.ID {
		t.Fatal("parent linkage wrong")
	}
	if !job.Snapshot().Open() {
		t.Fatal("unended span not open")
	}
	wait.FinishAt(25)
	run := tr.Record(KindRun, "run wc", job, 25, math.NaN(), Attrs{Job: 3, Node: 0})
	run.SetConfig("f2.4 m4 b128")
	run.SetPartner("nb")
	run.AddEnergy(50)
	run.AddEnergy(25)
	run.FinishAt(100)
	run.FinishAt(120) // a second FinishAt keeps the first timestamp
	job.FinishAt(100)

	ws := wait.Snapshot()
	if ws.Start != 10 || ws.End != 25 || ws.Dur() != 15 {
		t.Fatalf("wait span = %+v", ws)
	}
	rs := run.Snapshot()
	if rs.EnergyJ != 75 || rs.Attrs.Config != "f2.4 m4 b128" || rs.Attrs.Partner != "nb" {
		t.Fatalf("run span = %+v", rs)
	}
	if rs.End != 100 {
		t.Fatalf("second FinishAt moved the timestamp: %+v", rs)
	}
	if js := job.Snapshot(); js.Dur() != 90 {
		t.Fatalf("job span = %+v", js)
	}
}

func TestRecordRetroactive(t *testing.T) {
	tr := New()
	m := tr.Record(KindMap, "map", nil, 5, 12, Attrs{Job: 0, Node: 1})
	if s := m.Snapshot(); s.Start != 5 || s.End != 12 {
		t.Fatalf("retroactive span = %+v", s)
	}
	// An inverted interval clamps to zero length rather than going negative.
	r := tr.Record(KindReduce, "reduce", nil, 12, 7, Attrs{})
	if s := r.Snapshot(); s.Dur() != 0 || s.Start != 12 {
		t.Fatalf("inverted interval = %+v", s)
	}
}

func TestSpansCanonicalOrder(t *testing.T) {
	tr := New()
	a := tr.Record(KindRun, "late", nil, 50, math.NaN(), Attrs{Job: 0})
	tr.Record(KindMap, "early", nil, 10, 20, Attrs{Job: 1})
	tr.Record(KindMap, "same-start-2", nil, 30, 31, Attrs{Job: 2})
	tr.Record(KindMap, "same-start-1", nil, 30, 32, Attrs{Job: 3})
	a.FinishAt(50)
	got := tr.Spans()
	wantNames := []string{"early", "same-start-2", "same-start-1", "late"}
	for i, w := range wantNames {
		if got[i].Name != w {
			t.Fatalf("order[%d] = %q, want %q (full: %+v)", i, got[i].Name, w, got)
		}
	}
	if !math.IsNaN(tr.Record(KindJob, "open", nil, 60, math.NaN(), Attrs{}).Snapshot().End) {
		t.Fatal("open span has a non-NaN end")
	}
}

func TestTotalEnergy(t *testing.T) {
	tr := New()
	tr.Record(KindNode, "idle", nil, 0, 1, Attrs{Node: 0}).AddEnergy(3)
	tr.Record(KindNode, "solo", nil, 1, 2, Attrs{Node: 0}).AddEnergy(5)
	tr.Record(KindRun, "run", nil, 1, 2, Attrs{Job: 0, Node: 0}).AddEnergy(5)
	spans := tr.Spans()
	if got := TotalEnergyJ(spans, KindNode); got != 8 {
		t.Fatalf("node energy = %v, want 8", got)
	}
	if got := TotalEnergyJ(spans, KindRun); got != 5 {
		t.Fatalf("run energy = %v, want 5", got)
	}
}

// BenchmarkDisabledSpan proves disabled tracing costs one predictable
// branch per call — the same contract as metrics.BenchmarkDisabledCounter.
// The call sequence is the scheduler's: open a span at a time, accrue
// energy onto it, close it.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	attrs := Attrs{Job: 1, Node: 0, App: "wc", Class: "C"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := float64(i)
		sp := tr.Record(KindRun, "run", nil, at, math.NaN(), attrs)
		sp.AddEnergy(1)
		sp.FinishAt(at)
	}
}

// BenchmarkEnabledSpan is the enabled-path cost for contrast.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	attrs := Attrs{Job: 1, Node: 0, App: "wc", Class: "C"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := float64(i)
		sp := tr.Record(KindRun, "run", nil, at, math.NaN(), attrs)
		sp.AddEnergy(1)
		sp.FinishAt(at)
	}
}

// TestSpansDuringDrive reads Spans while another goroutine records,
// finishes and annotates spans, as a -serve scrape does mid-run. Run
// under -race it fails if Spans reads a span without the lock.
func TestSpansDuringDrive(t *testing.T) {
	tr := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			at := float64(i)
			job := tr.Record(KindJob, "job", nil, at, math.NaN(), Attrs{Job: i, Node: -1})
			run := tr.Record(KindRun, "run", job, at, math.NaN(), Attrs{Job: i, Node: i % 4})
			run.SetConfig("f2.4 m4 b128")
			run.SetPartner("wc")
			run.AddEnergy(1)
			run.FinishAt(at + 1)
			job.SetEnergy(2)
			job.FinishAt(at + 1)
		}
	}()
	for {
		select {
		case <-done:
			if got := len(tr.Spans()); got != 4000 {
				t.Fatalf("Spans returned %d spans, want 4000", got)
			}
			return
		default:
		}
		spans := tr.Spans()
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].Start {
				t.Fatalf("span %d starts before span %d", i, i-1)
			}
		}
	}
}
