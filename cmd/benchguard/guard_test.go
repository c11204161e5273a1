package main

import (
	"bytes"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: ecost/internal/metrics
BenchmarkDisabledCounter   	1000000000	         0.3945 ns/op	       0 B/op	       0 allocs/op
BenchmarkDisabledHistogram-4 	1000000000	         0.3912 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem             	  500000	      2100 ns/op
BenchmarkOnlineShardedCluster-4   	       3	 150055457 ns/op	    266568 jobs/s	71938504 B/op	   60460 allocs/op
PASS
ok  	ecost/internal/metrics	0.878s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(got), got)
	}
	if m := got["BenchmarkDisabledCounter"]; m.NsOp != 0.3945 || m.AllocsOp != 0 {
		t.Errorf("DisabledCounter = %+v", m)
	}
	// The -N GOMAXPROCS suffix is stripped.
	if m, ok := got["BenchmarkDisabledHistogram"]; !ok || m.NsOp != 0.3912 {
		t.Errorf("DisabledHistogram = %+v (ok=%v)", m, ok)
	}
	// Without -benchmem, allocations are unmeasured (-1), not zero.
	if m := got["BenchmarkNoMem"]; m.NsOp != 2100 || m.AllocsOp != -1 {
		t.Errorf("NoMem = %+v", m)
	}
	// A ReportMetric column (jobs/s) between ns/op and B/op must not
	// disarm the alloc gate.
	if m := got["BenchmarkOnlineShardedCluster"]; m.NsOp != 150055457 || m.BOp != 71938504 || m.AllocsOp != 60460 {
		t.Errorf("OnlineShardedCluster = %+v, want bytes and allocs parsed through the jobs/s column", m)
	}
	if m := got["BenchmarkNoMem"]; m.BOp != -1 {
		t.Errorf("NoMem B/op = %d, want -1 (unmeasured)", m.BOp)
	}
}

func TestCompare(t *testing.T) {
	base := []baselineEntry{
		{Benchmark: "BenchmarkSubNs", NsOp: 0.37, AllocsOp: 0, Guard: true},
		{Benchmark: "BenchmarkBig", NsOp: 1000, AllocsOp: 2, Guard: true},
		{Benchmark: "BenchmarkGone", NsOp: 5, AllocsOp: 0, Guard: true},
		{Benchmark: "BenchmarkRecordOnly", NsOp: 1, AllocsOp: 0}, // not guarded
	}
	got := map[string]measured{
		// 0.46 ns is +24% of the sub-ns baseline but well inside the
		// 1 ns absolute floor; must pass.
		"BenchmarkSubNs":      {NsOp: 0.46, AllocsOp: 0},
		"BenchmarkBig":        {NsOp: 1249, AllocsOp: 2}, // within 25%
		"BenchmarkRecordOnly": {NsOp: 9999, AllocsOp: 50},
	}
	comps := compare(base, got, 25, 1)
	if len(comps) != 3 {
		t.Fatalf("compared %d entries, want the 3 guarded ones: %+v", len(comps), comps)
	}
	byName := map[string]comparison{}
	for _, c := range comps {
		byName[c.Benchmark] = c
	}
	if c := byName["BenchmarkSubNs"]; c.Status != statusOK || c.LimitNs != 1.37 {
		t.Errorf("SubNs = %+v, want ok with limit 1.37 (abs floor)", c)
	}
	if c := byName["BenchmarkBig"]; c.Status != statusOK || c.LimitNs != 1250 {
		t.Errorf("Big = %+v, want ok with limit 1250 (25%%)", c)
	}
	if c := byName["BenchmarkGone"]; c.Status != statusMissing {
		t.Errorf("Gone = %+v, want missing", c)
	}

	// ns/op over the limit regresses.
	got["BenchmarkBig"] = measured{NsOp: 1251, AllocsOp: 2}
	if c := findComp(t, compare(base, got, 25, 1), "BenchmarkBig"); c.Status != statusRegressed {
		t.Errorf("over-limit ns = %+v, want regressed", c)
	}
	// A new allocation regresses even when ns/op is fine.
	got["BenchmarkSubNs"] = measured{NsOp: 0.37, AllocsOp: 1}
	if c := findComp(t, compare(base, got, 25, 1), "BenchmarkSubNs"); c.Status != statusRegressed {
		t.Errorf("new alloc = %+v, want regressed", c)
	}
	// Unmeasured allocations (no -benchmem) gate only on ns/op.
	got["BenchmarkSubNs"] = measured{NsOp: 0.37, AllocsOp: -1}
	if c := findComp(t, compare(base, got, 25, 1), "BenchmarkSubNs"); c.Status != statusOK {
		t.Errorf("unmeasured allocs = %+v, want ok", c)
	}
}

// TestCompareBytes gates B/op at a fixed 10% over a recorded b_op: a
// byte regression fails even when ns/op and allocs/op hold, a 0-B
// baseline admits no byte at all, and output run without -benchmem
// gates ns/op only.
func TestCompareBytes(t *testing.T) {
	base := []baselineEntry{
		{Benchmark: "BenchmarkBig", NsOp: 1000, BOp: 1000, AllocsOp: 2, Guard: true},
		{Benchmark: "BenchmarkZero", NsOp: 1, BOp: 0, AllocsOp: 0, Guard: true},
	}
	for _, tc := range []struct {
		name  string
		got   measured
		limit int64
		want  string
	}{
		{"BenchmarkBig", measured{NsOp: 1000, BOp: 1100, AllocsOp: 2}, 1100, statusOK},
		{"BenchmarkBig", measured{NsOp: 1000, BOp: 1101, AllocsOp: 2}, 1100, statusRegressed},
		{"BenchmarkBig", measured{NsOp: 1000, BOp: -1, AllocsOp: -1}, 1100, statusOK},
		{"BenchmarkZero", measured{NsOp: 1, BOp: 0, AllocsOp: 0}, 0, statusOK},
		{"BenchmarkZero", measured{NsOp: 1, BOp: 1, AllocsOp: 0}, 0, statusRegressed},
	} {
		c := findComp(t, compare(base, map[string]measured{tc.name: tc.got}, 25, 1), tc.name)
		if c.Status != tc.want || c.LimitBytes != tc.limit || c.GotBytes != tc.got.BOp {
			t.Errorf("%s at %d B/op = %+v, want %s with byte limit %d", tc.name, tc.got.BOp, c, tc.want, tc.limit)
		}
	}
}

func findComp(t *testing.T, comps []comparison, name string) comparison {
	t.Helper()
	for _, c := range comps {
		if c.Benchmark == name {
			return c
		}
	}
	t.Fatalf("no comparison for %s in %+v", name, comps)
	return comparison{}
}

func TestWriteComparison(t *testing.T) {
	comps := []comparison{
		{Benchmark: "BenchmarkA", Package: "internal/x", BaseNs: 0.37, LimitNs: 1.37, GotNs: 0.4, BaseAllocs: 0, GotAllocs: 0, Status: statusOK},
		{Benchmark: "BenchmarkB", Package: "internal/y", BaseNs: 5, LimitNs: 6.25, GotAllocs: -1, Status: statusMissing},
	}
	var buf bytes.Buffer
	if err := writeComparison(&buf, comps, 25, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BenchmarkA", "BenchmarkB", statusMissing, "1 guarded benchmark(s) failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}

// TestGuardedBaselineFile loads the repo's real BENCH_PERF.json: the
// schema must parse and the disabled-path benchmarks the CI job runs
// must all be guarded, so the workflow and the baseline cannot drift
// apart silently.
func TestGuardedBaselineFile(t *testing.T) {
	base, err := loadBaseline("../../BENCH_PERF.json")
	if err != nil {
		t.Fatal(err)
	}
	guarded := map[string]bool{}
	for _, b := range base {
		if !b.Guard {
			continue
		}
		guarded[b.Benchmark] = true
		// Disabled-path and instrumented-accrual guards promise zero
		// allocations; throughput guards (the large-cluster event loop)
		// carry a real alloc budget instead.
		if strings.HasPrefix(b.Benchmark, "BenchmarkDisabled") && b.AllocsOp != 0 {
			t.Errorf("%s is guarded with baseline allocs %d; disabled paths must be alloc-free", b.Benchmark, b.AllocsOp)
		}
	}
	for _, want := range []string{
		"BenchmarkDisabledCounter",
		"BenchmarkDisabledHistogram",
		"BenchmarkDisabledSpan",
		"BenchmarkDisabledAudit",
		"BenchmarkDisabledDepthSample",
		"BenchmarkDisabledOccupancyRoll",
		"BenchmarkAccrueEnergyTraced",
		"BenchmarkOnlineLargeCluster",
		"BenchmarkOnlineShardedCluster",
		"BenchmarkBarrierElision",
		"BenchmarkScenarioGen",
	} {
		if !guarded[want] {
			t.Errorf("BENCH_PERF.json does not guard %s", want)
		}
	}
	for _, b := range base {
		if b.Benchmark == "BenchmarkAccrueEnergyTraced" && b.AllocsOp != 0 {
			t.Errorf("the instrumented accrual path is guarded with baseline allocs %d; the zero-alloc contract is the point", b.AllocsOp)
		}
	}
}
