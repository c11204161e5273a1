package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/workloads"
)

// stpGolden is what the three model techniques predict under
// FastOptions over DefaultTestPairs (one fresh Env, observations drawn
// pair by pair in order), then how many per-(class pair, size) models
// each holds. It was recorded from the eagerly trained techniques; the
// models are seeded and the row grouping is deterministic, so training
// them on first use must reproduce it bit for bit.
const stpGolden = `pr(5)+pr(5) LR=1.2,256,5|2.4,256,3 REPTree=1.2,256,4|1.6,256,2 MLP=2.4,1024,2|2.4,1024,2
svm(5)+km(5) LR=1.2,1024,1|1.2,128,7 REPTree=1.2,64,4|1.6,256,2 MLP=1.2,1024,1|2.4,1024,6
nb(5)+cf(5) LR=1.2,1024,1|1.2,128,7 REPTree=1.2,64,4|1.6,256,2 MLP=1.2,1024,1|2.4,1024,6
pr(10)+km(10) LR=1.2,1024,1|1.2,128,7 REPTree=1.2,128,4|1.6,512,2 MLP=1.2,512,1|2.4,256,7
pr(5)+hmm(5) LR=2.4,512,2|2.4,128,6 REPTree=1.6,128,1|2.4,256,4 MLP=1.2,64,1|2.4,256,4
pr(10)+pr(10) LR=1.2,256,5|2.4,512,3 REPTree=2.0,512,4|1.6,512,2 MLP=2.4,1024,2|2.4,1024,2
hmm(10)+cf(10) LR=1.2,1024,1|1.2,128,7 REPTree=1.2,64,4|1.6,512,2 MLP=1.2,1024,1|2.4,1024,6
cf(5)+km(5) LR=2.4,1024,1|1.2,128,7 REPTree=1.2,128,4|1.2,256,2 MLP=2.0,1024,1|2.0,1024,1
nb(1)+svm(1) LR=2.4,128,5|2.4,128,3 REPTree=2.0,128,4|2.4,256,1 MLP=2.4,1024,2|2.4,1024,3
svm(10)+pr(10) LR=2.4,128,6|2.4,512,2 REPTree=2.4,512,4|1.6,256,1 MLP=2.4,256,4|1.2,64,1
models LR=78 REPTree=78 MLP=78
`

// stpPredictions renders the golden lines for one fresh Env: the
// predictions first, so training is triggered by PredictBest, then the
// model counts.
func stpPredictions(t *testing.T, env *Env) string {
	t.Helper()
	var sb strings.Builder
	for _, tp := range DefaultTestPairs() {
		oa, err := env.Observe(workloads.MustLookup(tp.NameA), tp.SizeA)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := env.Observe(workloads.MustLookup(tp.NameB), tp.SizeB)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s(%g)+%s(%g)", tp.NameA, tp.SizeA, tp.NameB, tp.SizeB)
		for _, s := range env.STPs()[1:] {
			cfg, err := s.PredictBest(oa, ob)
			if err != nil {
				t.Fatalf("%s on %+v: %v", s.Name(), tp, err)
			}
			fmt.Fprintf(&sb, " %s=%s|%s", s.Name(), cfg[0], cfg[1])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "models LR=%d REPTree=%d MLP=%d\n", env.LR.Models(), env.REPTree.Models(), env.MLP.Models())
	return sb.String()
}

// TestSTPPredictionGolden builds a fresh FastOptions Env at GOMAXPROCS 1
// and 4 and requires both to reproduce stpGolden: the database build,
// the model training and the parallel argmin sweep must not depend on
// the worker count or on when the models train. Skipped with -short
// (each pass trains every model family from scratch).
func TestSTPPredictionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: trains the LR, REPTree and MLP families twice")
	}
	for _, procs := range []int{1, 4} {
		got := func() string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			env, err := NewEnv(FastOptions())
			if err != nil {
				t.Fatal(err)
			}
			return stpPredictions(t, env)
		}()
		if got != stpGolden {
			t.Fatalf("GOMAXPROCS=%d: predictions diverge from the golden\n--- got ---\n%s--- want ---\n%s", procs, got, stpGolden)
		}
	}
}
