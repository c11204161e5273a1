package mapreduce

import (
	"math"
	"testing"

	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// TestEvaluatorMatchesCoLocate is the bit-determinism contract of the
// batched API: every scalar PairMetrics/PairBatch produces must equal
// the serial CoLocate path exactly, for every configuration in the
// joint space.
func TestEvaluatorMatchesCoLocate(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	a := RunSpec{App: workloads.MustLookup("wc").App(), DataMB: 5 * 1024}
	b := RunSpec{App: workloads.MustLookup("st").App(), DataMB: 1024}
	cfgs := PairConfigsCached(m.Spec.Cores)
	// Every 97th point keeps the sweep fast while covering all knob
	// dimensions.
	var sample [][2]Config
	for i := 0; i < len(cfgs); i += 97 {
		sample = append(sample, cfgs[i])
	}
	out := make([]CoMetrics, len(sample))
	if err := e.PairBatch(a, b, sample, out); err != nil {
		t.Fatal(err)
	}
	for i, pc := range sample {
		a.Cfg, b.Cfg = pc[0], pc[1]
		co, err := m.Pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if co.Metrics() != out[i] {
			t.Fatalf("config %v: batch %+v != serial %+v", pc, out[i], co.Metrics())
		}
	}
}

// TestPairBatchFullGrid is the bit-determinism contract of PairBatch's
// solo-tail table: at every one of the 11,200 joint configurations,
// for several application pairs and sizes — a 0-MB side and equal-size
// pairs among them — each scalar equals Model.Pair's, on the calibrated
// model and on a noisy one (same-seeded, so the jitter draws must line
// up call for call). The grid runs as one batch, so every tail the
// table holds is reused across it.
func TestPairBatchFullGrid(t *testing.T) {
	pairs := []struct {
		a, b         string
		dataA, dataB float64
	}{
		{"wc", "st", 5 * 1024, 1024},
		{"st", "wc", 1024, 5 * 1024},
		{"gp", "ts", 10 * 1024, 10 * 1024},
		{"fp", "fp", 5 * 1024, 5 * 1024},
		{"ts", "gp", 0, 1024},
		{"km", "svm", 1024, 0},
	}
	cfgs := PairConfigsCached(model().Spec.Cores)
	for _, noisy := range []bool{false, true} {
		batchModel, serialModel := model(), model()
		if noisy {
			batchModel = batchModel.WithNoise(0.05, sim.NewRNG(11))
			serialModel = serialModel.WithNoise(0.05, sim.NewRNG(11))
		}
		e := batchModel.NewEvaluator()
		out := make([]CoMetrics, len(cfgs))
		for _, p := range pairs {
			a := RunSpec{App: workloads.MustLookup(p.a).App(), DataMB: p.dataA}
			b := RunSpec{App: workloads.MustLookup(p.b).App(), DataMB: p.dataB}
			if err := e.PairBatch(a, b, cfgs, out); err != nil {
				t.Fatal(err)
			}
			if !noisy {
				// The argmin form scans the same batch without a buffer.
				want, wantEDP := -1, math.Inf(1)
				for i, cm := range out {
					if cm.EDP < wantEDP {
						want, wantEDP = i, cm.EDP
					}
				}
				got, gotEDP, err := e.PairArgmin(a, b, cfgs)
				if err != nil || got != want || gotEDP != wantEDP {
					t.Fatalf("%s/%s: PairArgmin = %d (%v, %v), the batch's argmin %d (%v)", p.a, p.b, got, gotEDP, err, want, wantEDP)
				}
			}
			filled := 0
			for _, te := range e.tails.entries {
				if te.ok {
					filled++
				}
			}
			if filled == 0 {
				t.Fatalf("noisy=%v %s/%s: the batch solved no solo tail", noisy, p.a, p.b)
			}
			for i, pc := range cfgs {
				a.Cfg, b.Cfg = pc[0], pc[1]
				co, err := serialModel.Pair(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if co.Metrics() != out[i] {
					t.Fatalf("noisy=%v %s@%g/%s@%g config %v: batch %+v != Pair %+v",
						noisy, p.a, p.dataA, p.b, p.dataB, pc, out[i], co.Metrics())
				}
			}
		}
	}
}

// TestEvaluatorNoisyMatchesPair checks the noisy-model fallback keeps
// the RNG stream identical to the full path: interleaving PairMetrics
// and Pair calls on same-seeded models must agree draw for draw.
func TestEvaluatorNoisyMatchesPair(t *testing.T) {
	m1 := model().WithNoise(0.05, sim.NewRNG(7))
	m2 := model().WithNoise(0.05, sim.NewRNG(7))
	e := m1.NewEvaluator()
	a := spec("wc", 5*1024, 2.4, 256, 4)
	b := spec("st", 1024, 1.6, 512, 3)
	for i := 0; i < 4; i++ {
		got, err := e.PairMetrics(a, b)
		if err != nil {
			t.Fatal(err)
		}
		co, err := m2.Pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != co.Metrics() {
			t.Fatalf("call %d: noisy metrics %+v != serial %+v", i, got, co.Metrics())
		}
	}
}

// TestEvaluatorZeroAlloc pins the whole point of the batched API: after
// warm-up, a PairMetrics evaluation, a PairBatch and a PairArgmin
// perform no heap allocations.
func TestEvaluatorZeroAlloc(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	a := spec("wc", 5*1024, 2.4, 256, 4)
	b := spec("st", 1024, 1.6, 512, 3)
	if _, err := e.PairMetrics(a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.PairMetrics(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("PairMetrics allocates %.1f objects per call, want 0", allocs)
	}
	// A batch and an argmin scan, solo-tail table included, allocate
	// nothing either once the table exists.
	cfgs := PairConfigsCached(m.Spec.Cores)[:600]
	out := make([]CoMetrics, len(cfgs))
	if err := e.PairBatch(a, b, cfgs, out); err != nil {
		t.Fatal(err)
	}
	batch := testing.AllocsPerRun(5, func() {
		if err := e.PairBatch(a, b, cfgs, out); err != nil {
			t.Fatal(err)
		}
	})
	argmin := testing.AllocsPerRun(5, func() {
		if _, _, err := e.PairArgmin(a, b, cfgs); err != nil {
			t.Fatal(err)
		}
	})
	if batch > 0 || argmin > 0 {
		t.Fatalf("PairBatch allocates %.1f and PairArgmin %.1f objects per call, want 0", batch, argmin)
	}
}

// TestPairBatchLengthMismatch exercises the defensive check.
func TestPairBatchLengthMismatch(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	a := spec("wc", 1024, 2.4, 256, 4)
	b := spec("st", 1024, 1.6, 512, 3)
	if err := e.PairBatch(a, b, make([][2]Config, 3), make([]CoMetrics, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// BenchmarkPairMetrics measures the batched single evaluation — the
// unit the brute-force searches are built from — and its allocs/op.
func BenchmarkPairMetrics(b *testing.B) {
	m := model()
	e := m.NewEvaluator()
	ra := spec("wc", 5*1024, 2.4, 256, 4)
	rb := spec("st", 1024, 1.6, 512, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PairMetrics(ra, rb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairSerial is the pre-batch baseline for comparison.
func BenchmarkPairSerial(b *testing.B) {
	m := model()
	ra := spec("wc", 5*1024, 2.4, 256, 4)
	rb := spec("st", 1024, 1.6, 512, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pair(ra, rb); err != nil {
			b.Fatal(err)
		}
	}
}
