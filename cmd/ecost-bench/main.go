// Command ecost-bench regenerates the paper's evaluation artifacts —
// every table and figure — against the simulated testbed and prints them
// as aligned text tables.
//
// Usage:
//
//	ecost-bench [-exp all|fig1|fig2|fig3|fig5|table1|table2|table3|fig8|fig9] [-fast] [-nodes 1,2,4,8]
//	            [-cache DIR] [-cpuprofile FILE] [-memprofile FILE]
//
// -fast builds a coarser database (unit-test fidelity) for a quick look;
// the default configuration reproduces the EXPERIMENTS.md numbers.
// -cache persists the built database and trained models under DIR so
// repeat runs skip the build. -cpuprofile/-memprofile write pprof
// profiles covering the whole run (build + experiments); see README.md
// for the analysis workflow.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ecost/internal/cliutil"
	"ecost/internal/experiments"
	"ecost/internal/scenario"
)

// experimentNames is the closed set -exp accepts.
var experimentNames = []string{
	"all", "fig1", "fig2", "fig3", "fig5", "table1", "table2", "table3",
	"fig8", "fig9", "ablations", "online", "sharded",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames, ", "))
	fast := flag.Bool("fast", false, "use the fast (coarse) environment")
	nodesFlag := flag.String("nodes", "1,2,4,8", "cluster sizes for fig9")
	csvDir := flag.String("csv", "", "also write each artifact as CSV into this directory")
	cacheDir := flag.String("cache", "", "cache the built environment (database + models) under this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
	flag.Parse()

	if err := cliutil.SetupLogging(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "ecost-bench:", err)
		os.Exit(cliutil.ExitUsage)
	}
	known := false
	for _, name := range experimentNames {
		known = known || name == *exp
	}
	if !known {
		cliutil.Usagef("unknown -exp", "exp", *exp, "want", strings.Join(experimentNames, ", "))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cliutil.Fatalf("creating -cpuprofile failed", "err", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			cliutil.Fatalf("starting CPU profile failed", "err", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				slog.Error("creating -memprofile failed", "err", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				slog.Error("writing heap profile failed", "err", err)
			}
		}()
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			cliutil.Fatalf("creating -csv directory failed", "err", err)
		}
	}

	var nodes []int
	for _, part := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			cliutil.Usagef("bad -nodes entry", "entry", part)
		}
		nodes = append(nodes, n)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	// Table 3 needs no environment.
	if want("table3") {
		fmt.Println(experiments.Table3Workloads())
		if *exp == "table3" {
			return
		}
	}

	opt := experiments.DefaultOptions()
	if *fast {
		opt = experiments.FastOptions()
	}
	start := time.Now()
	var env *experiments.Env
	var err error
	if *cacheDir != "" {
		var hit bool
		env, hit, err = experiments.LoadOrBuildEnv(opt, *cacheDir)
		if err == nil {
			if hit {
				slog.Info("environment loaded from cache", "took", time.Since(start).Round(time.Millisecond))
			} else {
				slog.Info("environment built and cached", "took", time.Since(start).Round(time.Millisecond))
			}
		}
	} else {
		slog.Info("building environment (database + models)")
		env, err = experiments.NewEnv(opt)
		if err == nil {
			slog.Info("environment ready", "took", time.Since(start).Round(time.Millisecond))
		}
	}
	if err != nil {
		cliutil.Fatalf("building environment failed", "err", err)
	}

	writeCSV := func(name string, tbl experiments.Table) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			cliutil.Fatalf("creating CSV failed", "artifact", name, "err", err)
		}
		if err := tbl.WriteCSV(f); err != nil {
			cliutil.Fatalf("writing CSV failed", "artifact", name, "err", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatalf("closing CSV failed", "artifact", name, "err", err)
		}
	}

	run := func(name string, f func() (experiments.Table, error)) {
		if !want(name) {
			return
		}
		t0 := time.Now()
		tbl, err := f()
		if err != nil {
			cliutil.Fatalf("experiment failed", "exp", name, "err", err)
		}
		fmt.Println(tbl)
		writeCSV(name, tbl)
		slog.Info("experiment done", "exp", name, "took", time.Since(t0).Round(time.Millisecond))
	}

	run("fig1", func() (experiments.Table, error) { t, _, err := experiments.Fig1PCA(env); return t, err })
	run("fig2", func() (experiments.Table, error) { t, _, err := experiments.Fig2EDPImprovement(env); return t, err })
	run("fig3", func() (experiments.Table, error) { t, _, err := experiments.Fig3ColaoVsIlao(env); return t, err })
	run("fig5", func() (experiments.Table, error) { t, _, err := experiments.Fig5PriorityRanking(env); return t, err })
	run("table1", func() (experiments.Table, error) { t, _, err := experiments.Table1ModelAPE(env); return t, err })
	run("table2", func() (experiments.Table, error) { t, _, err := experiments.Table2PredictedConfigs(env); return t, err })
	run("fig8", func() (experiments.Table, error) { t, _, err := experiments.Fig8Overheads(env); return t, err })
	run("fig9", func() (experiments.Table, error) {
		t, _, err := experiments.Fig9MappingPolicies(env, nodes)
		return t, err
	})
	run("ablations", func() (experiments.Table, error) {
		t1, _, err := experiments.AblationDecoupling(env, "WS4", 2)
		if err != nil {
			return experiments.Table{}, err
		}
		fmt.Println(t1)
		t2, _, err := experiments.AblationNoise(env, nil)
		if err != nil {
			return experiments.Table{}, err
		}
		fmt.Println(t2)
		t3, _, err := experiments.AblationBeyondTwo(env)
		if err != nil {
			return experiments.Table{}, err
		}
		fmt.Println(t3)
		t4, _, err := experiments.AblationSizeAware(env, 2)
		return t4, err
	})
	run("online", func() (experiments.Table, error) {
		spec := scenario.Spec{
			Jobs:     32,
			Seed:     42,
			Arrivals: scenario.ArrivalSpec{Kind: scenario.ArrivalPoisson, Mean: 180},
			Sizes:    scenario.SizeSpec{Kind: scenario.SizeTable3},
			Mix:      scenario.MixSpec{Kind: scenario.MixUniform, Unknown: true},
		}
		// REPTree trains on first use; train it here so the timed
		// region holds the event loop only.
		env.REPTree.Models()
		t0 := time.Now()
		t, _, err := experiments.OnlineTrace(env, spec, 4)
		if err == nil {
			// Wall-clock simulation throughput: how many submitted jobs the
			// online event loop chews through per real second. The paper's
			// thousand-node claims rest on this staying interactive; the
			// large-cluster benchmark (BENCH_PERF.json) guards it in CI.
			elapsed := time.Since(t0)
			fmt.Printf("online wall throughput: %.0f jobs simulated/s (%d jobs in %s)\n\n",
				float64(spec.Jobs)/elapsed.Seconds(), spec.Jobs, elapsed.Round(time.Millisecond))
		}
		return t, err
	})
	run("sharded", func() (experiments.Table, error) {
		// Control-plane throughput vs shard count on one recurring-tenant
		// stream: offered load matches the large-cluster benchmark
		// (mean inter-arrival 1536/nodes seconds).
		const shardedNodes = 64
		spec := scenario.Spec{
			Jobs: 512,
			Seed: 42,
			Arrivals: scenario.ArrivalSpec{
				Kind: scenario.ArrivalPoisson, Mean: 1536.0 / shardedNodes,
			},
			Sizes: scenario.SizeSpec{Kind: scenario.SizePareto, Alpha: 1.6, Min: 1, Max: 12},
			Mix:   scenario.MixSpec{Kind: scenario.MixZipf, S: 1.1, Tenants: 12},
		}
		t, _, err := experiments.ShardSweep(env, spec, shardedNodes, []int{1, 2, 4, 8, 16})
		return t, err
	})
}
