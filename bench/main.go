// Command bench is the repository benchmark: it replays one seeded
// arrival stream through the sharded online control plane, checks every
// pass, and prints end-to-end or per-layer metrics as one JSON line.
//
//	bash bench/run.sh --workload recurring --seed 1 --seconds 10 --trace 0
//
// One process builds the environment cold (timed as setup_s), generates
// the stream once, runs one warm-up pass, then untraced passes for
// --seconds, then, with --trace 1, two passes with the timing decorators
// on. Human-readable tables go to standard error; standard output ends
// with a line naming the machine and the per-pass spread, then the
// result line. See bench/README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ecost/internal/experiments"
	"ecost/internal/metrics"
	"ecost/internal/trace"
)

const (
	// minPasses keeps a median and quartiles meaningful when --seconds
	// is shorter than a few passes.
	minPasses    = 3
	tracedPasses = 2
)

func main() {
	name := flag.String("workload", "recurring", "workload: recurring, churn or backlog")
	seed := flag.Int64("seed", 1, "seed of the arrival stream and the profiler (2 is held out for claims)")
	seconds := flag.Float64("seconds", 10, "how long the untraced passes run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics from traced passes, 0 the end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceFlag int, extra []string) error {
	w, ok := workloadByName(name)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", name)
	case traceFlag != 0 && traceFlag != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	case len(extra) > 0:
		return fmt.Errorf("unexpected arguments %q", extra)
	case !(seconds >= 0):
		return fmt.Errorf("--seconds must be non-negative")
	}

	fmt.Fprintf(os.Stderr, "building environment (NewEnv(FastOptions()), cold)\n")
	reg := metrics.NewRegistry()
	opt := experiments.FastOptions()
	opt.Metrics = reg
	start := time.Now()
	env, err := experiments.NewEnv(opt)
	if err != nil {
		return err
	}
	setup := setupTimes{
		totalS:   time.Since(start).Seconds(),
		dbBuildS: reg.VolatileGauge("env.db_build.wall_seconds").Value(),
	}
	for _, s := range []string{"LR", "REPTree", "MLP"} {
		setup.trainS += reg.VolatileGauge("env.train." + s + ".wall_seconds").Value()
	}
	lkt, ok := env.LkT.(expectingSTP)
	if !ok {
		return errors.New("env.LkT does not expose a forecast")
	}
	arrivals, err := w.arrivals(seed)
	if err != nil {
		return err
	}

	r := measure(plant{db: env.DB, lkt: lkt}, w, arrivals, seed, seconds, traceFlag == 1, os.Stderr)
	e2e := endToEnd(r, setup)
	writeTable(os.Stderr, "end-to-end (untraced medians)", e2e)
	detail := simDetail(r.warm.sim)
	fmt.Fprintf(os.Stderr, "  sim: EDP %.6g J.s, energy %.6g J, makespan %.6g s, wait p50/p99 %.6g / %.6g s\n",
		detail["edp_js"], detail["energy_j"], detail["makespan_s"], detail["wait_p50_s"], detail["wait_p99_s"])
	out := e2e
	if traceFlag == 1 {
		out = perLayer(r, setup)
		writeTable(os.Stderr, "per layer (traced medians)", out)
	}

	jps := mapPasses(r.measured, pass.jobsPerS)
	context, err := json.Marshal(map[string]any{
		"workload":             w.name,
		"seed":                 seed,
		"jobs":                 len(arrivals),
		"machine":              thisMachine(),
		"sim":                  detail,
		"jobs_per_s_passes":    jps,
		"jobs_per_s_quartiles": quartiles(jps),
	})
	if err != nil {
		return err
	}
	attempted, failed := r.failures()
	res := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
	}
	ms := map[string]any{}
	for _, m := range out {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	res["metrics"] = ms
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", context, line)
	return nil
}

// runResult holds every pass of one process.
type runResult struct {
	warm     pass
	measured []pass
	traced   []pass
}

// measure runs the warm-up pass, untraced passes until seconds have
// passed (at least minPasses), and, when traced, the traced passes.
func measure(p plant, w workload, arrivals []trace.Arrival, seed int64, seconds float64, traced bool, log io.Writer) runResult {
	var r runResult
	r.warm = runPass(p, w, arrivals, seed, false)
	logPass(log, "warm-up", r.warm)
	start := time.Now()
	for len(r.measured) < minPasses || time.Since(start).Seconds() < seconds {
		r.measured = append(r.measured, runPass(p, w, arrivals, seed, false))
		logPass(log, fmt.Sprintf("pass %d", len(r.measured)), r.measured[len(r.measured)-1])
	}
	for traced && len(r.traced) < tracedPasses {
		r.traced = append(r.traced, runPass(p, w, arrivals, seed, true))
		logPass(log, fmt.Sprintf("traced %d", len(r.traced)), r.traced[len(r.traced)-1])
	}
	return r
}

// failures counts jobs attempted and failed over every pass. A pass
// whose simulated result differs in any bit from the warm-up pass's is
// one more failure: the control plane is deterministic, traced or not.
func (r runResult) failures() (attempted, failed int) {
	all := append(append([]pass{r.warm}, r.measured...), r.traced...)
	for _, p := range all {
		attempted += p.jobs
		failed += p.failed
		if p.sim != r.warm.sim {
			failed++
		}
	}
	return attempted, failed
}

func logPass(w io.Writer, label string, p pass) {
	fmt.Fprintf(w, "%-9s %9.0f jobs/s  submit %7.1f ms  run %7.1f ms  completed %5.1f ms  failed %d\n",
		label, p.jobsPerS(), float64(p.submitNs)/1e6, float64(p.runNs)/1e6, float64(p.mergeNs)/1e6, p.failed)
}

func writeTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}
