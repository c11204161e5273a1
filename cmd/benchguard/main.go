// Command benchguard compares `go test -bench -benchmem` output
// against the guarded entries of BENCH_PERF.json and fails (exit 1)
// when a guarded benchmark regressed or went missing. It exists to
// keep the disabled-path costs honest: the observability subsystems
// (metrics, tracing, audit) promise a nil handle costs one inlined
// branch, and that promise silently rots without a gate.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkDisabled' -benchmem ./... | benchguard -out comparison.txt
//
// Only baseline entries marked "guard": true participate; the rest of
// BENCH_PERF.json is a historical record, not a gate. The allowed
// ceiling per benchmark is baseline ns/op + max(-tolerance percent,
// -abs-floor-ns): the absolute floor keeps sub-nanosecond baselines
// (where 25% is ~0.1 ns, i.e. timer noise) from flapping, while still
// catching the failure mode that matters — a disabled path picking up
// an allocation or a real branch, which costs whole nanoseconds.
// Allocations have no tolerance: a guarded benchmark may not allocate
// more than its baseline. Bytes allocated (B/op) may exceed a recorded
// b_op by a fixed 10%, which holds a 0-B baseline exact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ecost/internal/cliutil"
)

func main() {
	baseline := flag.String("baseline", "BENCH_PERF.json", "baseline file with guarded entries")
	in := flag.String("in", "-", "benchmark output to check (- reads stdin)")
	out := flag.String("out", "", "also write the comparison table to this file (uploaded as a CI artifact)")
	tol := flag.Float64("tolerance", 25, "allowed ns/op regression in percent of the baseline")
	floor := flag.Float64("abs-floor-ns", 1, "minimum absolute ns/op headroom, guards sub-ns baselines against timer noise")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	flag.Parse()

	if err := cliutil.SetupLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(cliutil.ExitUsage)
	}
	if *tol < 0 || *floor < 0 {
		cliutil.Usagef("-tolerance and -abs-floor-ns must be non-negative")
	}

	base, err := loadBaseline(*baseline)
	if err != nil {
		cliutil.Fatalf("loading baseline failed", "path", *baseline, "err", err)
	}
	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			cliutil.Fatalf("opening benchmark output failed", "err", err)
		}
		defer f.Close()
		src = f
	}
	got, err := parseBenchOutput(src)
	if err != nil {
		cliutil.Fatalf("parsing benchmark output failed", "err", err)
	}

	comps := compare(base, got, *tol, *floor)
	if len(comps) == 0 {
		cliutil.Fatalf("baseline has no guarded entries", "path", *baseline)
	}
	if err := writeComparison(os.Stdout, comps, *tol, *floor); err != nil {
		cliutil.Fatalf("writing comparison failed", "err", err)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cliutil.Fatalf("creating -out failed", "err", err)
		}
		if err := writeComparison(f, comps, *tol, *floor); err != nil {
			f.Close()
			cliutil.Fatalf("writing -out failed", "err", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatalf("closing -out failed", "err", err)
		}
	}
	for _, c := range comps {
		if c.Status != statusOK {
			os.Exit(1)
		}
	}
}
