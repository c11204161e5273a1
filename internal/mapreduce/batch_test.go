package mapreduce

import (
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
// warm-up, a PairMetrics evaluation performs no heap allocations.
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
