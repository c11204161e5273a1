package core

import (
	"testing"

	"ecost/internal/workloads"
)

func runner(t *testing.T) *PolicyRunner {
	t.Helper()
	fixture(t)
	// The fixture database is coarse (stride 13), where the lookup table
	// is the reliable tuner; REPTree's coverage-dependent accuracy is
	// exercised by the experiments package at full fidelity.
	return &PolicyRunner{
		Oracle:   fix.oracle,
		DB:       fix.db,
		Tuner:    fix.lkt,
		Profiler: fix.profiler,
	}
}

// smallWorkload keeps policy tests fast: six jobs, two classes.
func smallWorkload() Workload {
	names := []string{"st", "nb", "pr", "st", "km", "pr"}
	w := Workload{Name: "test6"}
	for i, n := range names {
		w.Jobs = append(w.Jobs, JobSpec{App: workloads.MustLookup(n), SizeGB: []float64{5, 1}[i%2]})
	}
	return w
}

func TestScenariosWellFormed(t *testing.T) {
	ws := Scenarios()
	if len(ws) != 8 {
		t.Fatalf("%d scenarios, want 8", len(ws))
	}
	for _, w := range ws {
		if len(w.Jobs) != 16 {
			t.Errorf("%s has %d jobs, want 16", w.Name, len(w.Jobs))
		}
		for _, j := range w.Jobs {
			if j.SizeGB != 1 && j.SizeGB != 5 && j.SizeGB != 10 {
				t.Errorf("%s: size %v not in the studied set", w.Name, j.SizeGB)
			}
		}
	}
	if _, err := Scenario("WS9"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestScenarioClassSignatures(t *testing.T) {
	// Spot-check the paper's Table 3 class rows.
	ws1, err := Scenario("WS1")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range ws1.Jobs {
		if j.App.Class() != workloads.Compute {
			t.Fatalf("WS1 must be all-C; %s is %v", j.App.Name(), j.App.Class())
		}
	}
	ws3, err := Scenario("WS3")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range ws3.Jobs {
		if j.App.Name() != "st" {
			t.Fatalf("WS3 must be all sort; got %s", j.App.Name())
		}
	}
	ws8, err := Scenario("WS8")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[workloads.Class]bool{}
	for _, j := range ws8.Jobs {
		seen[j.App.Class()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("WS8 must cover all 4 classes, saw %d", len(seen))
	}
}

func TestPolicyStrings(t *testing.T) {
	want := []string{"SM", "MNM1", "MNM2", "SNM", "CBM", "PTM", "ECoST", "UB"}
	ps := Policies()
	if len(ps) != len(want) {
		t.Fatalf("%d policies", len(ps))
	}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Errorf("policy %d = %q, want %q", i, p, want[i])
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy has empty name")
	}
}

func TestAllPoliciesRun(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	for _, nodes := range []int{1, 2} {
		for _, p := range Policies() {
			res, err := r.Run(p, wl, nodes)
			if err != nil {
				t.Fatalf("%v on %d nodes: %v", p, nodes, err)
			}
			if res.EDP <= 0 || res.Makespan <= 0 || res.EnergyJ <= 0 {
				t.Errorf("%v on %d nodes: non-positive result %+v", p, nodes, res)
			}
			if res.Policy != p || res.Nodes != nodes {
				t.Errorf("%v result mislabelled: %+v", p, res)
			}
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	r := runner(t)
	if _, err := r.Run(SM, smallWorkload(), 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := r.Run(SM, Workload{}, 2); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := r.Run(Policy(99), smallWorkload(), 2); err == nil {
		t.Error("unknown policy accepted")
	}
	bare := &PolicyRunner{Oracle: fix.oracle}
	if _, err := bare.Run(ECoST, smallWorkload(), 2); err == nil {
		t.Error("ECoST without database accepted")
	}
	if _, err := bare.Run(PTM, smallWorkload(), 2); err == nil {
		t.Error("PTM without database accepted")
	}
}

func TestUBIsLowerBoundAmongPairedPolicies(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	ub, err := r.Run(UB, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{SNM, CBM, ECoST} {
		res, err := r.Run(p, wl, 2)
		if err != nil {
			t.Fatal(err)
		}
		// UB does a brute-force matching + tuning; a heuristic policy
		// should not beat it by more than scheduling noise.
		if res.EDP < ub.EDP*0.98 {
			t.Errorf("%v EDP %g beats UB %g", p, res.EDP, ub.EDP)
		}
	}
}

func TestTuningBeatsUntuned(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	snm, err := r.Run(SNM, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	ptm, err := r.Run(PTM, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ptm.EDP >= snm.EDP {
		t.Errorf("PTM (tuned, %g) not better than SNM (untuned, %g)", ptm.EDP, snm.EDP)
	}
}

func TestECoSTBeatsUntunedPolicies(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	ec, err := r.Run(ECoST, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{SM, SNM, CBM} {
		res, err := r.Run(p, wl, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ec.EDP >= res.EDP {
			t.Errorf("ECoST (%g) not better than untuned %v (%g)", ec.EDP, p, res.EDP)
		}
	}
}

func TestMoreNodesReduceMakespan(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	for _, p := range []Policy{SNM, ECoST, UB} {
		one, err := r.Run(p, wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		four, err := r.Run(p, wl, 4)
		if err != nil {
			t.Fatal(err)
		}
		if four.Makespan >= one.Makespan {
			t.Errorf("%v makespan did not improve with nodes: %g vs %g", p, four.Makespan, one.Makespan)
		}
	}
}

func TestSpreadPoliciesDegenerateGracefully(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	// On one node MNM1/MNM2 must fall back to SM-like behaviour, not fail.
	sm, err := r.Run(SM, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := r.Run(MNM1, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.EDP != sm.EDP {
		t.Errorf("MNM1 on 1 node EDP %g, want SM's %g", m1.EDP, sm.EDP)
	}
}

func TestNTConfig(t *testing.T) {
	cfg := NTConfig(8)
	if err := cfg.Validate(8); err != nil {
		t.Fatal(err)
	}
	if cfg.Freq != 2.4 || cfg.Block != 128 {
		t.Errorf("NT config = %v, want stock defaults", cfg)
	}
}

func TestOddWorkloadECoST(t *testing.T) {
	r := runner(t)
	wl := smallWorkload()
	wl.Jobs = wl.Jobs[:5] // odd count: one job must run solo
	res, err := r.Run(ECoST, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.EDP <= 0 {
		t.Fatal("odd workload produced no result")
	}
	ub, err := r.Run(UB, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ub.EDP <= 0 {
		t.Fatal("UB failed on odd workload")
	}
}

func TestUBMatchingRejectsHugeWorkloads(t *testing.T) {
	r := runner(t)
	var wl Workload
	for i := 0; i < 21; i++ {
		wl.Jobs = append(wl.Jobs, JobSpec{App: workloads.MustLookup("st"), SizeGB: 1})
	}
	if _, err := r.Run(UB, wl, 2); err == nil {
		t.Error("UB accepted a 21-job matching")
	}
}
