// Package ecost's benchmark harness regenerates every table and figure
// of the paper's evaluation under `go test -bench=.`: one benchmark per
// artifact, each reporting the headline fidelity number as a custom
// metric alongside the usual ns/op.
//
// The shared environment (database + trained models) is built once on
// first use with the full-fidelity options, its models trained up front
// so no figure's timing includes them; set -short to use the fast
// (coarse) environment instead.
package ecost

import (
	"os"
	"sync"
	"testing"

	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/mapreduce"
	"ecost/internal/workloads"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchOptions() experiments.Options {
	if testing.Short() {
		return experiments.FastOptions()
	}
	return experiments.DefaultOptions()
}

// env returns the shared benchmark environment. Set ECOST_BENCH_CACHE
// to a directory to persist the built database and trained models
// across runs (CI caches it keyed on the source hash).
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		opt := benchOptions()
		var e *experiments.Env
		var err error
		if dir := os.Getenv("ECOST_BENCH_CACHE"); dir != "" {
			e, _, err = experiments.LoadOrBuildEnv(opt, dir)
		} else {
			e, err = experiments.NewEnv(opt)
		}
		if err != nil {
			panic(err)
		}
		trainAll(e)
		benchEnv = e
	})
	return benchEnv
}

// trainAll trains the three model families, which otherwise train on
// first use.
func trainAll(e *experiments.Env) {
	for _, s := range []*core.MLMSTP{e.LR, e.REPTree, e.MLP} {
		s.Models()
	}
}

// BenchmarkEnvBuild measures the full offline pipeline — profiling,
// the COLAO searches, the training-row sweeps and model training — the
// cost the parallel build and the artifact cache attack. It always
// builds from scratch (no cache), so ns/op is the cold-start cost at
// the current GOMAXPROCS.
func BenchmarkEnvBuild(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := experiments.NewEnv(opt)
		if err != nil {
			b.Fatal(err)
		}
		trainAll(e)
	}
}

// BenchmarkEnvBuildLkT times NewEnv alone — the database build, with
// the model families left untrained — the cold start a run that only
// consults the lookup table (ecost-sim, the sharded control plane)
// pays.
func BenchmarkEnvBuildLkT(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnv(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1PCA regenerates Figure 1 (PCA + clustering of the 14
// feature metrics) and reports the PC1+PC2 explained variance.
func BenchmarkFig1PCA(b *testing.B) {
	e := env(b)
	var explained float64
	for i := 0; i < b.N; i++ {
		_, data, err := experiments.Fig1PCA(e)
		if err != nil {
			b.Fatal(err)
		}
		explained = data.ExplainedPC2
	}
	b.ReportMetric(100*explained, "PC1+PC2_%")
}

// BenchmarkFig2EDPImprovement regenerates Figure 2 and reports the
// concurrent-tuning improvement range.
func BenchmarkFig2EDPImprovement(b *testing.B) {
	e := env(b)
	var d experiments.Fig2Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Fig2EDPImprovement(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.RangeMin, "cvi_min_%")
	b.ReportMetric(d.RangeMax, "cvi_max_%")
	b.ReportMetric(d.Concurrent[0], "concurrent_m1_%")
	b.ReportMetric(d.Concurrent[7], "concurrent_m8_%")
}

// BenchmarkFig3ColaoVsIlao regenerates Figure 3 and reports the largest
// ILAO/COLAO gap (paper: 4.52× at I-I).
func BenchmarkFig3ColaoVsIlao(b *testing.B) {
	e := env(b)
	var d experiments.Fig3Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Fig3ColaoVsIlao(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.MaxRatio, "max_ILAO/COLAO")
	b.ReportMetric(d.Ratio[core.NewClassPair(workloads.IOBound, workloads.IOBound)], "II_ratio")
	b.ReportMetric(d.Ratio[core.NewClassPair(workloads.MemBound, workloads.MemBound)], "MM_ratio")
}

// BenchmarkFig5PriorityRanking regenerates Figure 5 and reports the
// benefit of the top-ranked pair.
func BenchmarkFig5PriorityRanking(b *testing.B) {
	e := env(b)
	var d experiments.Fig5Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Fig5PriorityRanking(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Ranking[0].Benefit, "top_pair_benefit")
}

// BenchmarkTable1ModelAPE regenerates Table 1 and reports each model's
// average training APE (paper: LR 55.2%, REPTree 4.38%, MLP 0.77%).
func BenchmarkTable1ModelAPE(b *testing.B) {
	e := env(b)
	var d experiments.Table1Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Table1ModelAPE(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Average["LR"], "LR_APE_%")
	b.ReportMetric(d.Average["REPTree"], "REPTree_APE_%")
	b.ReportMetric(d.Average["MLP"], "MLP_APE_%")
}

// BenchmarkTable2PredictedConfigs regenerates Table 2 and reports each
// technique's mean EDP error versus the COLAO oracle
// (paper §7.1: LkT 8.09%, LR 20.37%, REPTree 3.84%, MLP 3.43%).
func BenchmarkTable2PredictedConfigs(b *testing.B) {
	e := env(b)
	var d experiments.Table2Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Table2PredictedConfigs(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Mean["LkT"], "LkT_err_%")
	b.ReportMetric(d.Mean["LR"], "LR_err_%")
	b.ReportMetric(d.Mean["REPTree"], "REPTree_err_%")
	b.ReportMetric(d.Mean["MLP"], "MLP_err_%")
}

// BenchmarkFig8Overheads regenerates Figure 8 (training and prediction
// time of the STP techniques).
func BenchmarkFig8Overheads(b *testing.B) {
	e := env(b)
	var d experiments.Fig8Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Fig8Overheads(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.PredictTime["LkT"].Microseconds()), "LkT_predict_us")
	b.ReportMetric(float64(d.PredictTime["MLP"].Microseconds()), "MLP_predict_us")
	b.ReportMetric(d.TrainTime["MLP"].Seconds(), "MLP_train_s")
}

// BenchmarkFig9MappingPolicies regenerates Figure 9 across 1/2/4/8 nodes
// and reports the ECoST-vs-UB gap at 1 and 8 nodes (paper: ~4% and ~8%).
func BenchmarkFig9MappingPolicies(b *testing.B) {
	e := env(b)
	var d experiments.Fig9Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Fig9MappingPolicies(e, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.ECoSTGap[1], "gap_1node_%")
	b.ReportMetric(d.ECoSTGap[8], "gap_8node_%")
}

// BenchmarkOracleCOLAO measures one brute-force joint tuning search
// (11,200 model evaluations) — the cost ECoST's prediction replaces.
func BenchmarkOracleCOLAO(b *testing.B) {
	e := env(b)
	a := workloads.MustLookup("gp")
	c := workloads.MustLookup("km")
	for i := 0; i < b.N; i++ {
		fresh := core.NewOracle(e.Model)
		if _, err := fresh.COLAO(a, 5120, c, 5120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTPPredict measures one online tuning decision with the
// paper's preferred model (REPTree).
func BenchmarkSTPPredict(b *testing.B) {
	e := env(b)
	oa, err := e.Observe(workloads.MustLookup("nb"), 5)
	if err != nil {
		b.Fatal(err)
	}
	ob, err := e.Observe(workloads.MustLookup("cf"), 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.REPTree.PredictBest(oa, ob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPairEval measures a single execution-model evaluation —
// the unit cost every search above is built from.
func BenchmarkModelPairEval(b *testing.B) {
	e := env(b)
	a := workloads.MustLookup("wc")
	c := workloads.MustLookup("st")
	cfg := [2]mapreduce.Config{
		{Freq: 2.4, Block: 256, Mappers: 4},
		{Freq: 1.6, Block: 512, Mappers: 4},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Oracle.EvalPair(a, 10240, c, 10240, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
