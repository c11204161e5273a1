package experiments

import (
	"strings"
	"sync"
	"testing"

	"ecost/internal/core"
	"ecost/internal/perfctr"
	"ecost/internal/scenario"
	"ecost/internal/workloads"
)

// onlineSpec is the small open-loop stream the online test uses.
func onlineSpec() scenario.Spec {
	return scenario.Spec{
		Jobs:     12,
		Seed:     7,
		Arrivals: scenario.ArrivalSpec{Kind: scenario.ArrivalPoisson, Mean: 240},
		Sizes:    scenario.SizeSpec{Kind: scenario.SizeTable3},
		Mix:      scenario.MixSpec{Kind: scenario.MixUniform, Unknown: true},
	}
}

var (
	envOnce sync.Once
	testEnv *Env
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		e, err := NewEnv(FastOptions())
		if err != nil {
			panic(err)
		}
		testEnv = e
	})
	return testEnv
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("xx", "y")
	tbl.Notes = append(tbl.Notes, "hello")
	s := tbl.String()
	for _, want := range []string{"== T ==", "a", "bb", "2.5", "xx", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig1PCA(t *testing.T) {
	env := sharedEnv(t)
	tbl, data, err := Fig1PCA(env)
	if err != nil {
		t.Fatal(err)
	}
	if data.ExplainedPC2 < 0.5 || data.ExplainedPC2 > 1 {
		t.Errorf("PC1+PC2 explain %v; paper reports 85%%, want a dominant plane", data.ExplainedPC2)
	}
	if len(data.Loadings) != int(perfctr.NumMetrics) {
		t.Fatalf("loadings for %d metrics, want 14", len(data.Loadings))
	}
	clusters := map[int]bool{}
	for _, c := range data.Cluster {
		clusters[c] = true
	}
	if len(clusters) != 7 {
		t.Errorf("clustered into %d groups, want 7", len(clusters))
	}
	if len(data.Representatives) != 7 {
		t.Errorf("%d representatives, want 7", len(data.Representatives))
	}
	// The retained metrics must cover a majority of the paper's set.
	keep := map[perfctr.Metric]bool{}
	for _, m := range data.Representatives {
		keep[m] = true
	}
	hits := 0
	for _, m := range perfctr.ReducedMetrics() {
		if keep[m] {
			hits++
		}
	}
	if hits < 4 {
		t.Errorf("only %d of the paper's 7 retained metrics are representatives", hits)
	}
	if len(tbl.Rows) != int(perfctr.NumMetrics) {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestFig2Shapes(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := Fig2EDPImprovement(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Mappers) != 8 {
		t.Fatalf("expected series for 8 mapper counts, got %d", len(data.Mappers))
	}
	// Concurrent tuning dominates individual tuning at every mapper count.
	for i := range data.Mappers {
		if data.Concurrent[i] < data.BlockOnly[i]-1e-9 || data.Concurrent[i] < data.FreqOnly[i]-1e-9 {
			t.Errorf("m=%d: concurrent %v below individual (%v, %v)",
				data.Mappers[i], data.Concurrent[i], data.BlockOnly[i], data.FreqOnly[i])
		}
	}
	// The paper's remark: sensitivity shrinks as mappers increase.
	if data.Concurrent[0] <= data.Concurrent[7] {
		t.Errorf("concurrent improvement at m=1 (%v) not above m=8 (%v)",
			data.Concurrent[0], data.Concurrent[7])
	}
	if data.RangeMin < 0 || data.RangeMax > 100 || data.RangeMax < 20 {
		t.Errorf("concurrent-vs-individual range [%v, %v] implausible", data.RangeMin, data.RangeMax)
	}
}

func TestFig3Shapes(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := Fig3ColaoVsIlao(env)
	if err != nil {
		t.Fatal(err)
	}
	ii := core.NewClassPair(workloads.IOBound, workloads.IOBound)
	mm := core.NewClassPair(workloads.MemBound, workloads.MemBound)
	for cp, r := range data.Ratio {
		if cp != ii && data.Ratio[ii] < r {
			t.Errorf("I-I ratio %v not the largest (beaten by %v at %v)", data.Ratio[ii], cp, r)
		}
	}
	// M-containing pairs have the smallest gap.
	for cp, r := range data.Ratio {
		if cp.A != workloads.MemBound && cp.B != workloads.MemBound && r < data.Ratio[mm] {
			t.Errorf("non-M pair %v ratio %v below M-M %v", cp, r, data.Ratio[mm])
		}
	}
	if data.MaxRatio < 2 {
		t.Errorf("largest ILAO/COLAO gap = %v, want >2 (paper: 4.52)", data.MaxRatio)
	}
	if !strings.Contains(data.MaxRatioPair, "I-I") {
		t.Errorf("largest gap at %s, want an I-I pair", data.MaxRatioPair)
	}
}

func TestFig5Ranking(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := Fig5PriorityRanking(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Ranking) != 10 {
		t.Fatalf("ranking covers %d pairs, want 10", len(data.Ranking))
	}
	first := data.Ranking[0].Pair
	if first.A != workloads.IOBound || first.B != workloads.IOBound {
		t.Errorf("top pair = %v, want I-I", first)
	}
	last := data.Ranking[9].Pair
	if last.A != workloads.MemBound && last.B != workloads.MemBound {
		t.Errorf("bottom pair = %v, want an M pair", last)
	}
	for c, order := range data.PartnerOrder {
		if len(order) != 4 {
			t.Errorf("partner order for %v has %d classes", c, len(order))
		}
	}
}

func TestTable1Ordering(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := Table1ModelAPE(env)
	if err != nil {
		t.Fatal(err)
	}
	// Fast-mode sanity only — the paper-facing ordering (LR worst, MLP
	// best) is a default-fidelity claim recorded in EXPERIMENTS.md. Our
	// LR uses interaction features, so its *training* APE is far below
	// the paper's 55% even though its config-choice error matches §7.1.
	lr, rep, mlp := data.Average["LR"], data.Average["REPTree"], data.Average["MLP"]
	if lr <= 0 || rep <= 0 || mlp <= 0 {
		t.Errorf("non-positive training APE: LR %v REPTree %v MLP %v", lr, rep, mlp)
	}
	if rep > 30 {
		t.Errorf("REPTree training APE %v%% too high (paper: 4.38%%)", rep)
	}
	for cp, per := range data.APE {
		for name, v := range per {
			if v < 0 {
				t.Errorf("%v %s APE negative: %v", cp, name, v)
			}
		}
	}
}

func TestTable2Errors(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := Table2PredictedConfigs(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"LkT", "LR", "REPTree", "MLP"} {
		if len(data.Err[name]) != len(DefaultTestPairs()) {
			t.Fatalf("%s evaluated on %d pairs", name, len(data.Err[name]))
		}
		if data.Mean[name] < 0 {
			t.Errorf("%s mean error negative: %v", name, data.Mean[name])
		}
	}
	// The paper's qualitative finding: LkT and the tree-based model beat
	// plain linear regression by a wide margin.
	if data.Mean["LkT"] >= data.Mean["LR"] {
		t.Errorf("LkT (%v%%) should beat LR (%v%%)", data.Mean["LkT"], data.Mean["LR"])
	}
}

func TestFig8Overheads(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := Fig8Overheads(env)
	if err != nil {
		t.Fatal(err)
	}
	// LkT predicts fastest (table scan); the MLM techniques scan 11,200
	// configurations through a model.
	if data.PredictTime["LkT"] >= data.PredictTime["MLP"] {
		t.Errorf("LkT prediction (%v) not faster than MLP (%v)",
			data.PredictTime["LkT"], data.PredictTime["MLP"])
	}
	// LkT training (brute-force table population) dwarfs LR training.
	// Both are serial times: LkT's is one entry's search on one
	// evaluator, scaled to the table.
	t.Logf("training: LkT %v, LR %v", data.TrainTime["LkT"], data.TrainTime["LR"])
	if data.TrainTime["LkT"] <= data.TrainTime["LR"] {
		t.Errorf("LkT training (%v) should exceed LR training (%v)",
			data.TrainTime["LkT"], data.TrainTime["LR"])
	}
	for name, d := range data.TrainTime {
		if d <= 0 {
			t.Errorf("%s train time %v", name, d)
		}
	}
}

func TestFig9ReducedGrid(t *testing.T) {
	env := sharedEnv(t)
	ws4, err := core.Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	ws3, err := core.Scenario("WS3")
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := Fig9OnWith(env, env.LkT, []core.Workload{ws3, ws4}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"WS3", "WS4"} {
		per := data.Normalized[2][wl]
		if len(per) != len(core.Policies()) {
			t.Fatalf("%s: %d policies evaluated", wl, len(per))
		}
		// ECoST must beat the untuned serial policy and stay within 5%
		// of UB. The coarse fast-mode database measures ECoST/UB at
		// 1.000 on WS3 and 0.9926 on WS4, so the band catches a drift
		// of a few percent in the reproduction without pinning the low
		// bits. (The default-fidelity numbers live in EXPERIMENTS.md
		// and are regenerated by the bench harness.)
		if per[core.ECoST] >= per[core.SM] {
			t.Errorf("%s: ECoST (%v) not better than untuned serial SM (%v)", wl, per[core.ECoST], per[core.SM])
		}
		if per[core.ECoST] > 1.05 {
			t.Errorf("%s: ECoST %vx of UB; want close to the upper bound", wl, per[core.ECoST])
		}
		if per[core.UB] != 1.0 {
			t.Errorf("%s: UB normalized to %v, want 1", wl, per[core.UB])
		}
	}
}

func TestTable3Workloads(t *testing.T) {
	tbl := Table3Workloads()
	if len(tbl.Rows) != 8 {
		t.Fatalf("Table 3 has %d scenarios, want 8", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[0], "WS") {
			t.Errorf("scenario name %q", row[0])
		}
		if strings.Count(row[1], ",") != 15 {
			t.Errorf("%s signature does not list 16 classes: %s", row[0], row[1])
		}
	}
}

func TestOnlineTrace(t *testing.T) {
	env := sharedEnv(t)
	_, data, err := OnlineTrace(env, onlineSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if data.Jobs != 12 {
		t.Fatalf("jobs = %d", data.Jobs)
	}
	if data.Makespan <= 0 || data.EnergyJ <= 0 || data.EDP <= 0 {
		t.Fatalf("degenerate online result: %+v", data)
	}
	if data.MeanWait < 0 || data.MaxWait < data.MeanWait {
		t.Fatalf("wait stats inconsistent: %+v", data)
	}
	if data.MeanElapsed < data.MeanWait {
		t.Fatalf("sojourn below wait: %+v", data)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "b"}}
	tbl.AddRow(1, "x,y")
	tbl.Notes = append(tbl.Notes, "n")
	var buf strings.Builder
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"a,b", "1,\"x,y\"", "# n"} {
		if !strings.Contains(got, want) {
			t.Errorf("CSV missing %q:\n%s", want, got)
		}
	}
}
