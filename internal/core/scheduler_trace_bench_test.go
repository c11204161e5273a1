package core

import (
	"io"
	"testing"

	"ecost/internal/sim"
	"ecost/internal/tracing"
)

// BenchmarkTraceExport measures exporting the full span set of a traced
// 16-job WS4 online run as Chrome trace_event JSON — the cost of one
// -trace-out write or one /trace scrape. The run itself happens once
// outside the timed region; the export is what repeats per request.
func BenchmarkTraceExport(b *testing.B) {
	fixture(b)
	wl, err := Scenario("WS4")
	if err != nil {
		b.Fatal(err)
	}
	s := oneShard(b, fix.lkt, NewProfiler(fix.model, sim.NewRNG(99)), 2)
	tr := tracing.New()
	s.SetTracer(tr)
	for i, j := range wl.Jobs {
		s.Submit(j.App, j.SizeGB, float64(i)*40)
	}
	if _, _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
