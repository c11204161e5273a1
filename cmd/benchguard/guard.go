package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
)

// baselineEntry is one BENCH_PERF.json result. Only the fields the
// guard reads are decoded; entries without "guard": true are records,
// not gates.
type baselineEntry struct {
	Benchmark string  `json:"benchmark"`
	Package   string  `json:"package"`
	NsOp      float64 `json:"ns_op"`
	BOp       int64   `json:"b_op"`
	AllocsOp  int64   `json:"allocs_op"`
	Guard     bool    `json:"guard"`
}

type baselineFile struct {
	Schema  string          `json:"schema"`
	Results []baselineEntry `json:"results"`
}

func loadBaseline(path string) ([]baselineEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "ecost-bench-perf/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	return f.Results, nil
}

// measured is one benchmark result line from `go test -bench -benchmem`.
// BOp and AllocsOp are -1 when the line carries no -benchmem columns.
type measured struct {
	NsOp     float64
	BOp      int64
	AllocsOp int64
}

// benchLineRe matches a result line. The -N GOMAXPROCS suffix is
// stripped so names join against the baseline; B/op and allocs/op are
// optional because -benchmem may be absent (then allocations are
// treated as unmeasured and only ns/op is gated). Custom ReportMetric
// columns (e.g. the throughput benchmarks' jobs/s) land between ns/op
// and B/op, so anything may separate them — requiring B/op to follow
// ns/op directly would leave exactly those benchmarks' alloc gates
// unmeasured.
var benchLineRe = regexp.MustCompile(`^(Benchmark[^\s-]+)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:.*?\s(\d+) B/op\s+(\d+) allocs/op)?`)

func parseBenchOutput(r io.Reader) (map[string]measured, error) {
	got := map[string]measured{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLineRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		bytes, allocs := int64(-1), int64(-1)
		if m[3] != "" {
			if bytes, err = strconv.ParseInt(m[3], 10, 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
			}
			if allocs, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
		}
		got[m[1]] = measured{NsOp: ns, BOp: bytes, AllocsOp: allocs}
	}
	return got, sc.Err()
}

const (
	statusOK        = "ok"
	statusRegressed = "REGRESSED"
	statusMissing   = "MISSING"
)

// bytesTolPct is the B/op tolerance. Unlike allocation counts, bytes
// move a little with runtime internals (map growth, size classes), so
// they get a fixed relative slack — which holds a 0-B baseline exact.
const bytesTolPct = 10

// comparison is one guarded benchmark's verdict. GotBytes and
// GotAllocs are -1 when the measurement has no -benchmem columns.
type comparison struct {
	Benchmark  string
	Package    string
	BaseNs     float64
	LimitNs    float64
	GotNs      float64
	LimitBytes int64
	GotBytes   int64
	BaseAllocs int64
	GotAllocs  int64
	Status     string
}

// compare gates every guarded baseline entry against the measured
// results. The ns/op ceiling is baseline + max(tolPct%, absFloorNs);
// B/op may exceed its baseline by bytesTolPct%; allocations must not
// exceed the baseline at all. A guarded entry with no measurement is
// itself a failure — deleting the benchmark must not silently disarm
// the guard.
func compare(base []baselineEntry, got map[string]measured, tolPct, absFloorNs float64) []comparison {
	var comps []comparison
	for _, b := range base {
		if !b.Guard {
			continue
		}
		limit := b.NsOp * (1 + tolPct/100)
		if limit < b.NsOp+absFloorNs {
			limit = b.NsOp + absFloorNs
		}
		c := comparison{
			Benchmark:  b.Benchmark,
			Package:    b.Package,
			BaseNs:     b.NsOp,
			LimitNs:    limit,
			LimitBytes: b.BOp * (100 + bytesTolPct) / 100,
			GotBytes:   -1,
			BaseAllocs: b.AllocsOp,
			GotAllocs:  -1,
			Status:     statusMissing,
		}
		if m, ok := got[b.Benchmark]; ok {
			c.GotNs, c.GotBytes, c.GotAllocs = m.NsOp, m.BOp, m.AllocsOp
			c.Status = statusOK
			if m.NsOp > limit ||
				(m.BOp >= 0 && m.BOp > c.LimitBytes) ||
				(m.AllocsOp >= 0 && m.AllocsOp > b.AllocsOp) {
				c.Status = statusRegressed
			}
		}
		comps = append(comps, c)
	}
	return comps
}

// writeComparison renders the verdict table (the CI artifact).
func writeComparison(w io.Writer, comps []comparison, tolPct, absFloorNs float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "benchguard: %d guarded benchmark(s), tolerance %g%% (abs floor %g ns)\n\n",
		len(comps), tolPct, absFloorNs)
	fmt.Fprintf(bw, "%-28s %-18s %12s %12s %12s %19s %8s %9s\n",
		"benchmark", "package", "base ns/op", "limit ns/op", "got ns/op", "B/op (limit)", "allocs", "status")
	bad := 0
	for _, c := range comps {
		gotNs, bytes, allocs := "-", "-", "-"
		if c.Status != statusMissing {
			gotNs = strconv.FormatFloat(c.GotNs, 'g', 4, 64)
			if c.GotBytes >= 0 {
				bytes = fmt.Sprintf("%d/%d", c.GotBytes, c.LimitBytes)
			}
			if c.GotAllocs >= 0 {
				allocs = fmt.Sprintf("%d/%d", c.GotAllocs, c.BaseAllocs)
			}
		}
		fmt.Fprintf(bw, "%-28s %-18s %12.4g %12.4g %12s %19s %8s %9s\n",
			c.Benchmark, c.Package, c.BaseNs, c.LimitNs, gotNs, bytes, allocs, c.Status)
		if c.Status != statusOK {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(bw, "\n%d guarded benchmark(s) failed\n", bad)
	} else {
		fmt.Fprint(bw, "\nall guarded benchmarks within tolerance\n")
	}
	return bw.Flush()
}
