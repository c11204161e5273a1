package perfctr

import (
	"math"
	"testing"

	"ecost/internal/sim"
	"ecost/internal/workloads"
)

func sampleTelemetry() Telemetry {
	return Telemetry{
		ExecTime:    100,
		CPUBusyFrac: 0.6,
		IOWaitFrac:  0.2,
		ReadMB:      5000,
		WrittenMB:   1000,
		EffIPC:      0.9,
		EffLLCMPKI:  5,
		MemFootMB:   400,
	}
}

func TestMetricNames(t *testing.T) {
	names := MetricNames()
	if len(names) != int(NumMetrics) || int(NumMetrics) != 14 {
		t.Fatalf("want 14 metrics, got %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bad metric name %q", n)
		}
		seen[n] = true
	}
	if Metric(99).String() == "" {
		t.Error("out-of-range metric has empty name")
	}
}

func TestReducedMetrics(t *testing.T) {
	r := ReducedMetrics()
	if len(r) != 7 {
		t.Fatalf("reduced set has %d metrics, want 7 (paper §3.2)", len(r))
	}
	want := map[Metric]bool{CPUUser: true, CPUIOWait: true, IOReadMBps: true,
		IOWriteMBps: true, IPC: true, MemFootMB: true, LLCMPKI: true}
	for _, m := range r {
		if !want[m] {
			t.Errorf("unexpected reduced metric %v", m)
		}
	}
}

func TestExactVector(t *testing.T) {
	p := workloads.MustByName("wc").Profile
	tl := sampleTelemetry()
	v := Exact(p, tl)
	if got := v.Get(CPUUser); got != 60 {
		t.Errorf("CPUuser = %v, want 60", got)
	}
	if got := v.Get(CPUIOWait); got != 20 {
		t.Errorf("CPUiowait = %v, want 20", got)
	}
	if got := v.Get(IOReadMBps); got != 50 {
		t.Errorf("IORead = %v, want 50", got)
	}
	if got := v.Get(IOWriteMBps); got != 10 {
		t.Errorf("IOWrite = %v, want 10", got)
	}
	if got := v.Get(IPC); got != 0.9 {
		t.Errorf("IPC = %v, want 0.9", got)
	}
	if got := v.Get(LLCMPKI); got != 5 {
		t.Errorf("LLCMPKI = %v, want 5", got)
	}
	if got := v.Get(ICacheMPKI); got != p.ICacheMPKI {
		t.Errorf("ICacheMPKI = %v, want %v", got, p.ICacheMPKI)
	}
	// CPU shares must not exceed 100%.
	sum := v.Get(CPUUser) + v.Get(CPUSystem) + v.Get(CPUIdle) + v.Get(CPUIOWait)
	if sum > 100+1e-9 {
		t.Errorf("CPU shares sum to %v > 100", sum)
	}
}

func TestMeasureNoisyButUnbiased(t *testing.T) {
	p := workloads.MustByName("st").Profile
	tl := sampleTelemetry()
	s := NewSampler(sim.NewRNG(1))
	exact := Exact(p, tl)
	n := 3000
	var sum Vector
	identical := true
	var first Vector
	for i := 0; i < n; i++ {
		v := s.Measure(p, tl)
		if i == 0 {
			first = v
		} else if v != first {
			identical = false
		}
		for m := range sum {
			sum[m] += v[m]
		}
	}
	if identical {
		t.Fatal("Measure produced no noise at all")
	}
	for m := Metric(0); m < NumMetrics; m++ {
		mean := sum[m] / float64(n)
		if exact[m] == 0 {
			continue
		}
		if rel := math.Abs(mean-exact[m]) / exact[m]; rel > 0.02 {
			t.Errorf("%v: mean %v vs exact %v (bias %v)", m, mean, exact[m], rel)
		}
	}
}

func TestMultiplexingNoiseShrinksWithRuns(t *testing.T) {
	p := workloads.MustByName("cf").Profile
	tl := sampleTelemetry()
	exact := Exact(p, tl)

	spread := func(runs int) float64 {
		s := NewSampler(sim.NewRNG(7))
		var sq float64
		n := 2000
		for i := 0; i < n; i++ {
			v := s.MeasureAveraged(p, tl, runs)
			d := (v[LLCMPKI] - exact[LLCMPKI]) / exact[LLCMPKI]
			sq += d * d
		}
		return math.Sqrt(sq / float64(n))
	}
	one, nine := spread(1), spread(9)
	if nine >= one/2 {
		t.Fatalf("averaging 9 runs should cut noise ~3x: 1-run σ=%v, 9-run σ=%v", one, nine)
	}
}

func TestPMUMetricsNoisierThanOSMetrics(t *testing.T) {
	p := workloads.MustByName("wc").Profile
	tl := sampleTelemetry()
	exact := Exact(p, tl)
	s := NewSampler(sim.NewRNG(3))
	n := 4000
	var sqIPC, sqUser float64
	for i := 0; i < n; i++ {
		v := s.Measure(p, tl)
		dI := (v[IPC] - exact[IPC]) / exact[IPC]
		dU := (v[CPUUser] - exact[CPUUser]) / exact[CPUUser]
		sqIPC += dI * dI
		sqUser += dU * dU
	}
	if math.Sqrt(sqIPC/float64(n)) < 2*math.Sqrt(sqUser/float64(n)) {
		t.Fatal("multiplexed PMU metric not noisier than OS metric")
	}
}

func TestMeasureNonNegative(t *testing.T) {
	p := workloads.MustByName("st").Profile
	tl := sampleTelemetry()
	s := NewSampler(sim.NewRNG(11))
	for i := 0; i < 1000; i++ {
		v := s.Measure(p, tl)
		for m := Metric(0); m < NumMetrics; m++ {
			if v[m] < 0 {
				t.Fatalf("negative reading %v = %v", m, v[m])
			}
		}
		for _, m := range []Metric{CPUUser, CPUSystem, CPUIdle, CPUIOWait} {
			if v[m] > 100 {
				t.Fatalf("percentage %v = %v > 100", m, v[m])
			}
		}
	}
}

func TestVectorSelectAndSlice(t *testing.T) {
	var v Vector
	for i := range v {
		v[i] = float64(i)
	}
	s := v.Slice()
	if len(s) != 14 || s[3] != 3 {
		t.Fatalf("Slice broken: %v", s)
	}
	s[0] = 99
	if v[0] == 99 {
		t.Fatal("Slice aliases the vector")
	}
	sel := v.Select([]Metric{LLCMPKI, CPUUser})
	if len(sel) != 2 || sel[0] != float64(LLCMPKI) || sel[1] != float64(CPUUser) {
		t.Fatalf("Select broken: %v", sel)
	}
}

func TestMonitorSummarize(t *testing.T) {
	m := NewMonitor()
	if _, err := m.Summarize(); err == nil {
		t.Fatal("empty monitor summarized without error")
	}
	for i := 1; i <= 10; i++ {
		m.Record(Row{
			At: float64(i), CPUUser: 50, CPUSys: 5, CPUWait: 10,
			ReadMB: 100, WriteMB: 20, ResidMB: float64(100 + i*10),
			Instrs: 1e9, Cycles: 1.25e9, LLCMiss: 5e6, ICMiss: 3e6,
			BrMiss: 2e6, Branches: 1e8,
		})
	}
	v, err := m.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if v[CPUUser] != 50 || v[CPUIOWait] != 10 {
		t.Errorf("CPU shares: user=%v wait=%v", v[CPUUser], v[CPUIOWait])
	}
	if v[IOReadMBps] != 100 { // 1000 MB over 10 s
		t.Errorf("IORead = %v, want 100", v[IOReadMBps])
	}
	if v[MemFootMB] != 200 { // peak
		t.Errorf("MemFoot = %v, want 200", v[MemFootMB])
	}
	if math.Abs(v[IPC]-0.8) > 1e-9 {
		t.Errorf("IPC = %v, want 0.8", v[IPC])
	}
	if math.Abs(v[LLCMPKI]-5) > 1e-9 { // 5e6 misses / 1e6 kilo-instructions
		t.Errorf("LLCMPKI = %v, want 5", v[LLCMPKI])
	}
	if math.Abs(v[ICacheMPKI]-3) > 1e-9 {
		t.Errorf("ICacheMPKI = %v, want 3", v[ICacheMPKI])
	}
	if math.Abs(v[BranchMiss]-2) > 1e-9 {
		t.Errorf("BranchMiss = %v, want 2%%", v[BranchMiss])
	}
}

func TestMonitorRowsSortedAndConcurrent(t *testing.T) {
	m := NewMonitor()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 50; i++ {
				m.Record(Row{At: float64((i*4 + g) % 97)})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if m.Len() != 200 {
		t.Fatalf("recorded %d rows, want 200", m.Len())
	}
	rows := m.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i].At < rows[i-1].At {
			t.Fatal("Rows() not sorted by time")
		}
	}
}

func TestMonitorFormat(t *testing.T) {
	m := NewMonitor()
	m.Record(Row{At: 1, CPUUser: 42})
	s := m.Format()
	if len(s) == 0 || s[:6] != "  time" {
		t.Fatalf("unexpected format header: %q", s)
	}
}

// TestSplitMeasureMatchesMeasure pins the split measurement: ExactInto
// then NoiseInto on one sampler reads the same vectors, bit for bit, as
// MeasureAveragedInto on a twin sampler with the same seed, over run
// counts that include the clamp to one run and over telemetry that
// drives the percentage clamps.
func TestSplitMeasureMatchesMeasure(t *testing.T) {
	hot := sampleTelemetry()
	hot.CPUBusyFrac, hot.IOWaitFrac = 0.99, 0.9
	tels := []Telemetry{sampleTelemetry(), hot, {}}
	split, whole := NewSampler(sim.NewRNG(5)), NewSampler(sim.NewRNG(5))
	for i := 0; i < 600; i++ {
		p := workloads.Apps()[i%len(workloads.Apps())].Profile
		tl := tels[i%len(tels)]
		runs := i%5 - 1
		var got, want Vector
		ExactInto(&got, &p, &tl)
		split.NoiseInto(&got, runs)
		whole.MeasureAveragedInto(&want, &p, &tl, runs)
		for m := range got {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("reading %d (runs %d): %v = %v split, %v whole", i, runs, Metric(m), got[m], want[m])
			}
		}
	}
}
