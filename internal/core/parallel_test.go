package core

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// buildAt constructs a fresh database and sweeps its training rows
// under GOMAXPROCS procs — which sizes the build's and the sweep's
// worker pools — holding everything else (profiler seed, sizes, stride)
// fixed.
func buildAt(t *testing.T, procs int) *Database {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	model := mapreduce.NewModel(cluster.AtomC2758())
	oracle := NewOracle(model)
	profiler := NewProfiler(model, sim.NewRNG(42))
	db, err := BuildDatabase(profiler, oracle, workloads.Training(), BuildOptions{
		Sizes:        []float64{1, 5},
		ConfigStride: 13,
	})
	if err != nil {
		t.Fatalf("build (GOMAXPROCS=%d): %v", procs, err)
	}
	if _, err := db.Rows(); err != nil {
		t.Fatalf("row sweep (GOMAXPROCS=%d): %v", procs, err)
	}
	return db
}

// trainTimeRE masks the one legitimately volatile field in the model
// envelope — wall-clock training time — so the byte-compare pins only
// the fitted coefficients and key order.
var trainTimeRE = regexp.MustCompile(`"train_time_ns":\d+`)

// modelBytes trains a linear-regression MLM-STP on the database and
// serializes all of its per-pair models: any divergence in training-row
// content or order shows up in the fitted coefficients.
func modelBytes(t *testing.T, db *Database) []byte {
	t.Helper()
	stp, err := NewMLMSTP("LR", db, func() ml.Regressor { return ml.NewLinearRegression() })
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stp.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no models serialized")
	}
	return trainTimeRE.ReplaceAll(buf.Bytes(), []byte(`"train_time_ns":0`))
}

// TestParallelBuildMatchesSerial is the determinism contract for the
// worker-pool database build: the serial build (GOMAXPROCS 1, one
// worker) and a four-worker build (GOMAXPROCS 4) must produce
// byte-identical entries, training rows, and trained models. The merge
// happens in canonical job order and every evaluation is a pure
// function of its inputs, so the schedule cannot leak into the output.
func TestParallelBuildMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: serial-vs-parallel build is a full double build")
	}
	serial := buildAt(t, 1)
	parallel := buildAt(t, 4)
	if !reflect.DeepEqual(serial.Entries, parallel.Entries) {
		t.Fatal("parallel entries diverge from serial build")
	}
	serialRows, _ := serial.Rows()
	parallelRows, _ := parallel.Rows()
	if len(serialRows) != len(parallelRows) {
		t.Fatalf("row map sizes differ: %d vs %d", len(serialRows), len(parallelRows))
	}
	for cp, rows := range serialRows {
		if !reflect.DeepEqual(rows, parallelRows[cp]) {
			t.Fatalf("training rows for %v diverge", cp)
		}
	}
	if !bytes.Equal(modelBytes(t, serial), modelBytes(t, parallel)) {
		t.Fatal("trained LR model bytes diverge from serial build")
	}
}

// TestPredictBestGOMAXPROCSInvariant pins the chunked argmin merge: the
// predicted configuration must not depend on how many workers scanned
// the space.
func TestPredictBestGOMAXPROCSInvariant(t *testing.T) {
	fixture(t)
	oa := obsOf(t, "wc", 1)
	ob := obsOf(t, "st", 5)
	stps := []STP{fix.lkt, fix.rep}
	type pred struct {
		cfg [2]mapreduce.Config
		err bool
	}
	var base []pred
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var got []pred
		for _, s := range stps {
			cfg, err := s.PredictBest(oa, ob)
			got = append(got, pred{cfg, err != nil})
		}
		runtime.GOMAXPROCS(prev)
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d: predictions diverge: %v vs %v", procs, base, got)
		}
	}
}

// TestCOLAOGOMAXPROCSInvariant pins the parallel oracle scan the same
// way: fresh oracles at different GOMAXPROCS must agree exactly.
func TestCOLAOGOMAXPROCSInvariant(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("wc")
	b := workloads.MustLookup("gp")
	var base *PairBest
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		o := NewOracle(fix.model)
		pb, err := o.COLAO(a, 1024, b, 5120)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if base == nil {
			base = &pb
			continue
		}
		if pb.Cfg != base.Cfg || pb.Out.EDP != base.Out.EDP || pb.Out.Makespan != base.Out.Makespan {
			t.Fatalf("GOMAXPROCS=%d: COLAO diverged: %+v vs %+v", procs, pb, *base)
		}
	}
}
