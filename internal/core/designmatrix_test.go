package core

import (
	"testing"

	"ecost/internal/ml"
	"ecost/internal/workloads"
)

// designEntries counts the design-matrix cache's entries.
func designEntries() int {
	n := 0
	designCache.Range(func(any, any) bool { n++; return true })
	return n
}

// TestPredictBestLeavesDesignCacheAlone sends 50 distinct continuous
// size pairs through PredictBest of an LR, a REPTree (with and without
// the slot features) and an MLP technique, and checks that none adds a
// design-matrix cache entry: the argmin computes each job's rows into
// a worker buffer, so only the training sweep's grid sizes are cached.
func TestPredictBestLeavesDesignCacheAlone(t *testing.T) {
	fixture(t)
	lr, err := NewMLMSTP("LR", fix.db, func() ml.Regressor { return ml.NewLinearRegression() })
	if err != nil {
		t.Fatal(err)
	}
	feat, err := NewMLMSTPFeatures("REPTree", fix.db, func() ml.Regressor { return ml.NewREPTree() }, 1)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLMSTPSampled("MLP", fix.db, func() ml.Regressor {
		m := ml.NewMLP()
		m.Epochs = 5
		return m
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	stps := []*MLMSTP{lr, fix.rep, feat, mlp}
	// One prediction at a training size trains each technique, so its
	// row sweep fills whatever the training grid needs first.
	a, b := obsOf(t, "wc", 1), obsOf(t, "st", 5)
	for _, s := range stps {
		if _, err := s.PredictBest(a, b); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
	before := designEntries()
	apps := workloads.Training()
	for i := 0; i < 50; i++ {
		sa, sb := 1.3+0.173*float64(i), 2.9+0.061*float64(i)
		oa, err := fix.profiler.Observe(apps[i%len(apps)], sa)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := fix.profiler.Observe(apps[(i+3)%len(apps)], sb)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stps {
			if _, err := s.PredictBest(oa, ob); err != nil {
				t.Fatalf("%s at sizes (%g, %g): %v", s.Name(), sa, sb, err)
			}
		}
	}
	if after := designEntries(); after != before {
		t.Fatalf("50 continuous size pairs grew the design-matrix cache from %d to %d entries", before, after)
	}
}
