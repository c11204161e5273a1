package mapreduce

import (
	"math"
	"reflect"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// checkPairAgainstReference runs every two-app entry point on (a, b)
// through the production evaluator e and its model and through the
// reference ref, in one order on both, and fails on any output or error
// that differs: Evaluator.Pair, PairMetrics, CoLocate and a two-app
// Steady. The two models must draw identical jitter.
func checkPairAgainstReference(t *testing.T, e *Evaluator, ref *refAPI, a, b RunSpec) {
	t.Helper()
	check := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s %s@%gMB %v / %s@%gMB %v: error %v, reference %v",
				what, a.App.Name, a.DataMB, a.Cfg, b.App.Name, b.DataMB, b.Cfg, gotErr, wantErr)
		}
		if gotErr == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s %s@%gMB %v / %s@%gMB %v:\n got %+v\nwant %+v",
				what, a.App.Name, a.DataMB, a.Cfg, b.App.Name, b.DataMB, b.Cfg, got, want)
		}
	}
	two := []RunSpec{a, b}

	gotCo, err := e.Pair(a, b)
	wantCo, wantErr := ref.coLocate(two, make([]Outcome, 2))
	check("Evaluator.Pair", gotCo, wantCo, err, wantErr)

	gotM, err := e.PairMetrics(a, b)
	wantCo, wantErr = ref.coLocate(two, ref.metricsApps(2))
	check("PairMetrics", gotM, wantCo.Metrics(), err, wantErr)

	gotCo, err = e.m.CoLocate(two)
	wantCo, wantErr = ref.coLocate(two, make([]Outcome, 2))
	check("CoLocate", gotCo, wantCo, err, wantErr)

	gotSt, gotW, err := e.Steady(two)
	wantSt, wantW, wantErr := legacySteady(ref.m, two)
	check("Steady states", gotSt, wantSt, err, wantErr)
	check("Steady watts", gotW, wantW, err, wantErr)
}

// TestPairPathMatchesReference pins the two-app fixed point against
// the reference solver: every ordered pair of applications (training
// and test) × sizes 0, 1, 3.7, 5, 10 and 20 GB on each side × three
// joint configurations, picked by a prime stride that visits every
// point of the grid over the product (three per size pair keeps the
// test well under a second, where the whole product would take
// minutes). Each point runs
// Evaluator.Pair, PairMetrics, CoLocate and a two-app Steady, on the
// calibrated model and on a noisy one against a reference model with
// the same seed, so the jitter draws must match call for call as well.
// Every point with data on both sides must take the kernel, and a 0-GB
// side, which has no splits, the full loop.
func TestPairPathMatchesReference(t *testing.T) {
	apps := workloads.Apps()
	sizes := []float64{0, 1, 3.7, 5, 10, 20}
	const perSizePair = 3
	for _, noise := range []float64{0, 0.05} {
		m, rm := model(), model()
		if noise > 0 {
			m, rm = m.WithNoise(noise, sim.NewRNG(11)), rm.WithNoise(noise, sim.NewRNG(11))
		}
		e, ref := m.NewEvaluator(), &refAPI{m: rm}
		grid := PairConfigsCached(m.Spec.Cores)
		points, seen := 0, map[int]bool{}
		for ai, appA := range apps {
			for bi, appB := range apps {
				for si, gbA := range sizes {
					for sj, gbB := range sizes {
						for k := 0; k < perSizePair; k++ {
							ci := ((((ai*len(apps)+bi)*len(sizes)+si)*len(sizes)+sj)*perSizePair + k) * 7919 % len(grid)
							cfg := grid[ci]
							a := RunSpec{App: &appA, DataMB: gbA * 1024, Cfg: cfg[0]}
							b := RunSpec{App: &appB, DataMB: gbB * 1024, Cfg: cfg[1]}
							checkPairAgainstReference(t, e, ref, a, b)
							if pairKernelRuns(m, a, b) != (gbA > 0 && gbB > 0) {
								t.Fatalf("%s@%gGB / %s@%gGB %v: kernel ran = %v", appA.Name, gbA, appB.Name, gbB, cfg, !(gbA > 0 && gbB > 0))
							}
							seen[ci] = true
							points++
						}
					}
				}
			}
		}
		want := len(apps) * len(apps) * len(sizes) * len(sizes) * perSizePair
		if points != want || len(seen) != len(grid) {
			t.Fatalf("noise %g: %d points over %d of %d joint configurations, want %d over all", noise, points, len(seen), len(grid), want)
		}
	}
}

// pairFixedPointSeeds are FuzzPairFixedPoint's seeds, in its argument
// order: model knobs (TaskStartupSec, OverlapFrac, SeekPenalty, disk
// bandwidth), the first app's profile fields (DiskDutyCap,
// MapInstrPerByte, ReduceInstrPerByte, SpillFactor, ShuffleSel,
// OutputSel) and data size in MB, then the second app's DiskDutyCap,
// SpillFactor and data size in MB. The second app is Sort, and every
// seed runs at pair-grid index 0 (1.2 GHz, 64 MB blocks, 1 + 1
// mappers) unless it says otherwise.
var pairFixedPointSeeds = [][14]float64{
	// Calibrated knobs, WordCount's and Sort's profiles, 5 GB and 1 GB.
	{3, 0.65, 0.06, 0, 0.85, 340, 60, 0.10, 0.22, 0.05, 5120, 0.45, 1.0, 1024},
	// Duty caps above 1: bursts held to the available bandwidth.
	{3, 0.65, 0.06, 0, 1.5, 340, 60, 0.10, 0.22, 0.05, 5120, 1.5, 1.0, 1024},
	// No startup cost and no work on the first app: a CPU time of 0,
	// so the kernel declines and the full loop runs (0/0 target rates).
	{0, 0.65, 0.06, 0, 0.85, 0, 0, -1, 0, 0, 5120, 0.45, 1.0, 1024},
	// The first app's spill so large its traffic overflows: an
	// infinite target rate, past a CPU time of 0.
	{0, 0.65, 0.06, 0, 1.5, 0, 0, 3.9e304, 0.22, 0.05, 5120, 0.45, 1.0, 1024},
	// Negative zero CPU times, an I/O time that underflows to +0 and no
	// reduce traffic, with OverlapFrac above 1 and a startup of −0: an
	// inline max/min would put the zeros' signs the other way round
	// and drive the first app's rate to −Inf where the reference
	// drives it to +Inf.
	{math.Copysign(0, -1), 1.5, 0.06, 0, 0.85, math.Copysign(0, -1), math.Copysign(0, -1), -1 + 0x1p-52, 0, 0, 2e-308, 0.45, 1.0, 1024},
	// No data on the second app: no splits, so no fixed point for it.
	{3, 0.65, 0.06, 0, 0.85, 340, 60, 0.10, 0.22, 0.05, 5120, 0.45, 1.0, 0},
	// Negative traffic: negative I/O times.
	{3, 0.65, 0.06, 0, 0.85, 340, 60, -3, 0.22, 0.05, 3789, 0.45, 1.0, 1024},
	// No disk bandwidth at all: negative bursts.
	{3, 0.65, 0.06, -1, 0.85, 340, 60, 0.10, 0.22, 0.05, 5120, 0.45, 1.0, 1024},
	// A startup cost so negative every task time is negative.
	{-1e6, 0.65, 0.06, 0, 0.85, 340, 60, 0.10, 0.22, 0.05, 5120, 0.45, 1.0, 1024},
}

// FuzzPairFixedPoint holds the two-app fixed point to the reference
// solver over arbitrary model knobs and profile fields: Evaluator.Pair,
// PairMetrics, CoLocate and a two-app Steady must match bit for bit,
// errors included. A disk bandwidth of 0 keeps the node's own. The
// seeds reach both of the pair path's branches: the hoisted kernel,
// and the full loop it falls back to when an operand of its inline
// max/min is not positive or a rate ends non-finite.
func FuzzPairFixedPoint(f *testing.F) {
	kernel, fallbacks := 0, 0
	for _, s := range pairFixedPointSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], 0)
		m, a, b := fuzzPair(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], 0)
		if pairKernelRuns(m, a, b) {
			kernel++
		} else {
			fallbacks++
		}
	}
	if kernel < 3 || fallbacks < 6 {
		f.Fatalf("%d seeds run the kernel and %d fall back, want at least 3 and 6", kernel, fallbacks)
	}
	f.Fuzz(func(t *testing.T, startup, overlap, seek, diskBW, duty, mapIPB, redIPB, spill, shuffle, output, dataMB, dutyB, spillB, dataMBB float64, cfg int) {
		m, a, b := fuzzPair(startup, overlap, seek, diskBW, duty, mapIPB, redIPB, spill, shuffle, output, dataMB, dutyB, spillB, dataMBB, cfg)
		checkPairAgainstReference(t, m.NewEvaluator(), &refAPI{m: m}, a, b)
	})
}

// fuzzPair builds FuzzPairFixedPoint's model and its WordCount- and
// Sort-named specs.
func fuzzPair(startup, overlap, seek, diskBW, duty, mapIPB, redIPB, spill, shuffle, output, dataMB, dutyB, spillB, dataMBB float64, cfg int) (*Model, RunSpec, RunSpec) {
	m := NewModel(cluster.AtomC2758())
	m.TaskStartupSec, m.OverlapFrac, m.SeekPenalty = startup, overlap, seek
	if diskBW != 0 {
		m.Spec.DiskBWMBps = diskBW
	}
	a, b := workloads.MustByName("wc"), workloads.MustByName("st")
	p := &a.Profile
	p.DiskDutyCap, p.MapInstrPerByte, p.ReduceInstrPerByte = duty, mapIPB, redIPB
	p.SpillFactor, p.ShuffleSel, p.OutputSel = spill, shuffle, output
	b.Profile.DiskDutyCap, b.Profile.SpillFactor = dutyB, spillB
	grid := PairConfigsCached(m.Spec.Cores)
	c := grid[(cfg%len(grid)+len(grid))%len(grid)]
	return m, RunSpec{App: &a, DataMB: dataMB, Cfg: c[0]}, RunSpec{App: &b, DataMB: dataMBB, Cfg: c[1]}
}

// pairKernelRuns reports whether the pair's steady solve takes the
// hoisted kernel rather than the full loop.
func pairKernelRuns(m *Model, a, b RunSpec) bool {
	var s evalScratch
	specs := []RunSpec{a, b}
	m.evaluateInto(specs, &s)
	bw := m.Spec.DiskBWMBps / (1 + m.SeekPenalty)
	_, _, ok := m.pairRates(specs, s.mapPh[:2], s.redPh[:2], s.splits[:2], bw)
	return ok
}
