package mapreduce

import (
	"math"
	"testing"
	"testing/quick"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

func model() *Model { return NewModel(cluster.AtomC2758()) }

func spec(name string, dataMB float64, f cluster.FreqGHz, b hdfs.BlockMB, m int) RunSpec {
	return RunSpec{
		App:    workloads.MustLookup(name).App(),
		DataMB: dataMB,
		Cfg:    Config{Freq: f, Block: b, Mappers: m},
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Freq: cluster.Freq2000, Block: hdfs.Block256, Mappers: 4}
	if err := ok.Validate(8); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Freq: 1.3, Block: hdfs.Block256, Mappers: 4},
		{Freq: cluster.Freq2000, Block: 100, Mappers: 4},
		{Freq: cluster.Freq2000, Block: hdfs.Block256, Mappers: 0},
		{Freq: cluster.Freq2000, Block: hdfs.Block256, Mappers: 9},
	}
	for _, c := range bad {
		if err := c.Validate(8); err == nil {
			t.Errorf("invalid config %v accepted", c)
		}
	}
}

func TestAllConfigsCount(t *testing.T) {
	// The paper's standalone tuning space: 4 freqs × 5 blocks × 8 mappers.
	if got := len(AllConfigs(8)); got != 160 {
		t.Fatalf("|AllConfigs(8)| = %d, want 160", got)
	}
	if got := len(AllConfigs(0)); got != 0 {
		t.Fatalf("|AllConfigs(0)| = %d, want 0", got)
	}
	seen := map[Config]bool{}
	for _, c := range AllConfigs(8) {
		if seen[c] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c] = true
		if err := c.Validate(8); err != nil {
			t.Fatalf("enumerated invalid config: %v", err)
		}
	}
}

func TestPairConfigsCount(t *testing.T) {
	// mapper pairs with m1,m2 ≥ 1 and m1+m2 ≤ 8: 28; times (4·5)².
	if got := len(PairConfigs(8)); got != 28*400 {
		t.Fatalf("|PairConfigs(8)| = %d, want %d", got, 28*400)
	}
	for _, pc := range PairConfigs(8) {
		if pc[0].Mappers+pc[1].Mappers > 8 {
			t.Fatalf("pair %v overcommits cores", pc)
		}
	}
}

func TestBaseline(t *testing.T) {
	b := Baseline(3)
	if b.Freq != cluster.MinFreq || b.Block != hdfs.Block64 || b.Mappers != 3 {
		t.Fatalf("Baseline(3) = %v", b)
	}
}

func TestSoloBasicSanity(t *testing.T) {
	m := model()
	out, co, err := m.Solo(spec("wc", 10240, cluster.Freq2400, hdfs.Block512, 8))
	if err != nil {
		t.Fatal(err)
	}
	if out.Time <= 0 || co.EnergyJ <= 0 || co.EDP <= 0 {
		t.Fatalf("non-positive outcome: %+v", out)
	}
	if out.Time != co.Makespan {
		t.Fatalf("solo time %v != makespan %v", out.Time, co.Makespan)
	}
	if math.Abs(co.AvgPower*co.Makespan-co.EnergyJ) > 1e-6*co.EnergyJ {
		t.Fatal("energy != power × time")
	}
	if math.Abs(co.EDP-co.EnergyJ*co.Makespan) > 1e-6*co.EDP {
		t.Fatal("EDP != energy × makespan")
	}
	if out.Splits != 20 || out.Waves != 3 {
		t.Fatalf("10GB/512MB with 8 mappers: splits=%d waves=%d, want 20/3", out.Splits, out.Waves)
	}
	if out.CPUUtil <= 0.5 {
		t.Fatalf("wordcount CPU util = %v, want compute-bound (>0.5)", out.CPUUtil)
	}
}

func TestComputeAppScalesWithFrequency(t *testing.T) {
	m := model()
	_, lo, _ := m.Solo(spec("wc", 10240, cluster.Freq1200, hdfs.Block512, 8))
	_, hi, _ := m.Solo(spec("wc", 10240, cluster.Freq2400, hdfs.Block512, 8))
	speedup := lo.Makespan / hi.Makespan
	if speedup < 1.45 {
		t.Fatalf("compute app speedup 1.2→2.4 GHz = %v, want ≥1.45", speedup)
	}
}

func TestMemBoundAppInsensitiveToFrequency(t *testing.T) {
	// The LLC-miss CPI term grows with f, so memory-bound applications
	// gain much less from DVFS — the basis of per-class tuning.
	m := model()
	_, lo, _ := m.Solo(spec("cf", 10240, cluster.Freq1200, hdfs.Block256, 8))
	_, hi, _ := m.Solo(spec("cf", 10240, cluster.Freq2400, hdfs.Block256, 8))
	mSpeed := lo.Makespan / hi.Makespan
	_, wlo, _ := m.Solo(spec("wc", 10240, cluster.Freq1200, hdfs.Block256, 8))
	_, whi, _ := m.Solo(spec("wc", 10240, cluster.Freq2400, hdfs.Block256, 8))
	cSpeed := wlo.Makespan / whi.Makespan
	if mSpeed >= cSpeed-0.15 {
		t.Fatalf("mem-bound DVFS speedup %v not clearly below compute %v", mSpeed, cSpeed)
	}
}

func TestIOBoundAppInsensitiveToFrequencyAndMappers(t *testing.T) {
	m := model()
	_, lo, _ := m.Solo(spec("st", 10240, cluster.Freq1200, hdfs.Block512, 4))
	_, hi, _ := m.Solo(spec("st", 10240, cluster.Freq2400, hdfs.Block512, 4))
	if sp := lo.Makespan / hi.Makespan; sp > 1.3 {
		t.Fatalf("I/O-bound DVFS speedup = %v, want small", sp)
	}
	_, m4, _ := m.Solo(spec("st", 10240, cluster.Freq1600, hdfs.Block512, 4))
	_, m8, _ := m.Solo(spec("st", 10240, cluster.Freq1600, hdfs.Block512, 8))
	if sp := m4.Makespan / m8.Makespan; sp > 1.25 {
		t.Fatalf("I/O-bound mapper speedup 4→8 = %v, want ~flat (disk-limited)", sp)
	}
}

func TestIOBoundLowUtilHighIOWait(t *testing.T) {
	m := model()
	out, _, _ := m.Solo(spec("st", 10240, cluster.Freq1600, hdfs.Block512, 4))
	if out.CPUUtil > 0.5 {
		t.Fatalf("sort CPU util = %v, want low", out.CPUUtil)
	}
	if out.IOWaitFrac < 0.3 {
		t.Fatalf("sort iowait = %v, want high", out.IOWaitFrac)
	}
}

func TestBlockSizeAmortizesStartupAtOneMapper(t *testing.T) {
	m := model()
	_, small, _ := m.Solo(spec("gp", 10240, cluster.Freq2400, hdfs.Block64, 1))
	_, large, _ := m.Solo(spec("gp", 10240, cluster.Freq2400, hdfs.Block1024, 1))
	if small.Makespan <= large.Makespan {
		t.Fatalf("64MB (%vs) should be slower than 1024MB (%vs) at m=1 (160 task startups)",
			small.Makespan, large.Makespan)
	}
	if ratio := small.Makespan / large.Makespan; ratio < 1.5 {
		t.Fatalf("block-size speedup at m=1 = %v, want substantial", ratio)
	}
}

func TestLargeBlocksThrashAtHighMappers(t *testing.T) {
	// 8 mappers × (0.6·1024MB buffers + 760MB working set) far exceeds
	// 8 GB of node memory: the model must charge a thrash penalty, making
	// large blocks a poor choice at a high mapper count — the B×m
	// interaction behind the paper's concurrent-tuning argument.
	m := model()
	_, big, _ := m.Solo(spec("cf", 10240, cluster.Freq2400, hdfs.Block1024, 8))
	_, mid, _ := m.Solo(spec("cf", 10240, cluster.Freq2400, hdfs.Block256, 8))
	if big.EDP <= mid.EDP {
		t.Fatalf("1024MB blocks at m=8 (EDP %g) should thrash vs 256MB (EDP %g)", big.EDP, mid.EDP)
	}
}

func TestPairValidation(t *testing.T) {
	m := model()
	a := spec("wc", 1024, cluster.Freq2400, hdfs.Block256, 5)
	b := spec("st", 1024, cluster.Freq2400, hdfs.Block256, 4)
	if _, err := m.Pair(a, b); err == nil {
		t.Fatal("9 mappers on 8 cores accepted")
	}
	bad := a
	bad.Cfg.Freq = 1.1
	if _, err := m.Pair(bad, b); err == nil {
		t.Fatal("invalid frequency accepted")
	}
	if _, err := m.CoLocate(nil); err == nil {
		t.Fatal("empty co-location accepted")
	}
	neg := a
	neg.DataMB = -1
	neg.Cfg.Mappers = 2
	if _, err := m.Pair(neg, b); err == nil {
		t.Fatal("negative data size accepted")
	}
}

func TestPairSymmetry(t *testing.T) {
	m := model()
	a := spec("wc", 5120, cluster.Freq2400, hdfs.Block256, 4)
	b := spec("st", 5120, cluster.Freq1600, hdfs.Block512, 4)
	ab, err := m.Pair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := m.Pair(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.EDP-ba.EDP) > 1e-6*ab.EDP {
		t.Fatalf("pair EDP not symmetric: %v vs %v", ab.EDP, ba.EDP)
	}
	if math.Abs(ab.Apps[0].Time-ba.Apps[1].Time) > 1e-6*ab.Apps[0].Time {
		t.Fatal("per-app outcomes not mirrored")
	}
}

func TestCoLocationSharesDisk(t *testing.T) {
	// Two sorts together must be slower each than one sort alone with the
	// same per-app config, but much faster than running serially.
	m := model()
	s := spec("st", 10240, cluster.Freq1600, hdfs.Block512, 4)
	_, solo, _ := m.Solo(s)
	pair, err := m.Pair(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Makespan <= solo.Makespan {
		t.Fatalf("co-located sorts (%vs) faster than solo (%vs)?", pair.Makespan, solo.Makespan)
	}
	if pair.Makespan >= 2*solo.Makespan {
		t.Fatalf("co-located sorts (%vs) no better than serial (%vs)", pair.Makespan, 2*solo.Makespan)
	}
}

func TestColocationBeyondTwoDegrades(t *testing.T) {
	// §4.2: co-locating 4+ applications at a node degrades EDP vs 2.
	m := model()
	mk := func(names []string, mappers int) []RunSpec {
		var out []RunSpec
		for _, n := range names {
			out = append(out, spec(n, 10240, cluster.Freq2000, hdfs.Block256, mappers))
		}
		return out
	}
	two, err := m.CoLocate(mk([]string{"st", "ts"}, 4))
	if err != nil {
		t.Fatal(err)
	}
	four, err := m.CoLocate(mk([]string{"st", "ts", "st", "ts"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	// EDP per unit of work: four apps process twice the data, so compare
	// the four-way EDP against two back-to-back two-way runs
	// (E doubles, T doubles → EDP ×4).
	if four.EDP <= 4*two.EDP {
		t.Fatalf("4-way co-location EDP %g not worse than two 2-way runs %g", four.EDP, 4*two.EDP)
	}
}

func TestContentionRelaxesAfterFinish(t *testing.T) {
	// A short job co-located with a long one: the long job's completion
	// must land between full-contention and no-contention estimates.
	m := model()
	long := spec("cf", 10240, cluster.Freq2400, hdfs.Block256, 4)
	short := spec("gp", 1024, cluster.Freq2400, hdfs.Block256, 4)
	_, soloLong, _ := m.Solo(long)
	pair, err := m.Pair(long, short)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Apps[0].Time < soloLong.Makespan {
		t.Fatal("co-located long job finished faster than solo")
	}
	if pair.Apps[1].Time >= pair.Apps[0].Time {
		t.Fatal("short job did not finish first")
	}
	if pair.Makespan != pair.Apps[0].Time {
		t.Fatal("makespan != last finisher")
	}
}

func TestDeterminism(t *testing.T) {
	m := model()
	s1 := spec("ts", 5120, cluster.Freq2000, hdfs.Block256, 4)
	s2 := spec("km", 5120, cluster.Freq1600, hdfs.Block512, 4)
	a, _ := m.Pair(s1, s2)
	b, _ := m.Pair(s1, s2)
	if a.EDP != b.EDP || a.Makespan != b.Makespan {
		t.Fatal("model is not deterministic")
	}
}

func TestWithNoise(t *testing.T) {
	base := model()
	noisy := base.WithNoise(0.05, sim.NewRNG(1))
	s := spec("wc", 1024, cluster.Freq2400, hdfs.Block256, 4)
	_, a, _ := noisy.Solo(s)
	_, b, _ := noisy.Solo(s)
	if a.Makespan == b.Makespan {
		t.Fatal("noisy model returned identical times")
	}
	// The base model must remain noise-free.
	_, c, _ := base.Solo(s)
	_, d, _ := base.Solo(s)
	if c.Makespan != d.Makespan {
		t.Fatal("WithNoise mutated the base model")
	}
}

func TestTelemetryMapping(t *testing.T) {
	m := model()
	out, _, _ := m.Solo(spec("st", 5120, cluster.Freq1600, hdfs.Block256, 4))
	tl := out.Telemetry()
	if tl.ExecTime != out.Time || tl.EffIPC != out.EffIPC || tl.ReadMB != out.ReadMB {
		t.Fatalf("telemetry mismatch: %+v vs %+v", tl, out)
	}
	if tl.ReadMB < 5120 {
		t.Fatalf("sort must read at least its input: %v", tl.ReadMB)
	}
	if tl.WrittenMB < 5120 {
		t.Fatalf("sort writes its full output: %v", tl.WrittenMB)
	}
}

func TestEDPPositivityProperty(t *testing.T) {
	m := model()
	appNames := []string{"wc", "st", "gp", "ts", "cf"}
	f := func(ai, fi, bi uint8, mappers uint8, dataRaw uint16) bool {
		a := workloads.MustLookup(appNames[int(ai)%len(appNames)]).App()
		cfg := Config{
			Freq:    cluster.Frequencies()[int(fi)%4],
			Block:   hdfs.BlockSizes()[int(bi)%5],
			Mappers: 1 + int(mappers)%8,
		}
		data := float64(dataRaw%20000) + 100
		_, co, err := m.Solo(RunSpec{App: a, DataMB: data, Cfg: cfg})
		if err != nil {
			return false
		}
		return co.EDP > 0 && co.EnergyJ > 0 && co.Makespan > 0 &&
			!math.IsNaN(co.EDP) && !math.IsInf(co.EDP, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMoreDataTakesLonger(t *testing.T) {
	m := model()
	f := func(raw uint16) bool {
		d := float64(raw%10000) + 200
		_, small, _ := m.Solo(spec("ts", d, cluster.Freq2000, hdfs.Block256, 4))
		_, large, _ := m.Solo(spec("ts", d*2, cluster.Freq2000, hdfs.Block256, 4))
		return large.Makespan > small.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroDataDegenerates(t *testing.T) {
	m := model()
	_, co, err := m.Solo(spec("wc", 0, cluster.Freq2400, hdfs.Block256, 4))
	if err != nil {
		t.Fatal(err)
	}
	if co.Makespan > m.JobOverheadSec+1 {
		t.Fatalf("empty job took %vs", co.Makespan)
	}
}

func TestMemBoundPrefersMaxCoresWhenPaired(t *testing.T) {
	// The paper's Fig. 5 discussion: an M application paired with an I
	// application grabs nearly all cores (e.g. 7) and the I app gets few.
	m := model()
	bestEDP := math.Inf(1)
	var bestM, bestI int
	for _, pc := range PairConfigs(8) {
		co, err := m.Pair(
			RunSpec{App: workloads.MustLookup("cf").App(), DataMB: 10240, Cfg: pc[0]},
			RunSpec{App: workloads.MustLookup("st").App(), DataMB: 10240, Cfg: pc[1]},
		)
		if err != nil {
			continue
		}
		if co.EDP < bestEDP {
			bestEDP = co.EDP
			bestM, bestI = pc[0].Mappers, pc[1].Mappers
		}
	}
	if bestM <= bestI {
		t.Fatalf("tuned I-M split gives M %d mappers vs I %d; M should dominate", bestM, bestI)
	}
	if bestM < 5 {
		t.Fatalf("memory-bound app got only %d mappers when paired", bestM)
	}
}

func TestSteadyMatchesSolo(t *testing.T) {
	m := model()
	s := spec("ts", 5120, cluster.Freq2000, hdfs.Block256, 4)
	sts, watts, err := m.Steady([]RunSpec{s}[:])
	if err != nil {
		t.Fatal(err)
	}
	_, co, err := m.Solo(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sts[0].JobTime-co.Makespan) > 1e-9 {
		t.Fatalf("Steady job time %v != solo makespan %v", sts[0].JobTime, co.Makespan)
	}
	if watts <= m.IdlePower() {
		t.Fatalf("active node power %v not above idle %v", watts, m.IdlePower())
	}
}

func TestSteadyEmptyIsIdle(t *testing.T) {
	m := model()
	sts, watts, err := m.Steady(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 0 {
		t.Fatalf("empty set produced states: %v", sts)
	}
	if watts != m.IdlePower() {
		t.Fatalf("empty node draws %v, want idle %v", watts, m.IdlePower())
	}
}

func TestSteadyValidation(t *testing.T) {
	m := model()
	a := spec("wc", 1024, cluster.Freq2400, hdfs.Block256, 5)
	b := spec("st", 1024, cluster.Freq2400, hdfs.Block256, 4)
	if _, _, err := m.Steady([]RunSpec{a, b}); err == nil {
		t.Fatal("overcommitted Steady accepted")
	}
	bad := a
	bad.Cfg.Block = 99
	if _, _, err := m.Steady([]RunSpec{bad}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSteadyContentionSlowsBoth(t *testing.T) {
	m := model()
	a := spec("st", 10240, cluster.Freq1600, hdfs.Block512, 4)
	b := spec("ts", 10240, cluster.Freq1600, hdfs.Block512, 4)
	soloA, _, err := m.Steady([]RunSpec{a})
	if err != nil {
		t.Fatal(err)
	}
	soloB, _, err := m.Steady([]RunSpec{b})
	if err != nil {
		t.Fatal(err)
	}
	both, _, err := m.Steady([]RunSpec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if both[0].JobTime <= soloA[0].JobTime || both[1].JobTime <= soloB[0].JobTime {
		t.Fatalf("two I/O-heavy apps on one disk did not slow down: %v/%v vs %v/%v",
			both[0].JobTime, both[1].JobTime, soloA[0].JobTime, soloB[0].JobTime)
	}
}

func TestEnergyAboveIdleFloorProperty(t *testing.T) {
	m := model()
	f := func(ai, bi, fi uint8, mappers uint8, raw uint16) bool {
		names := []string{"wc", "st", "gp", "ts", "cf", "km"}
		a := workloads.MustLookup(names[int(ai)%len(names)]).App()
		cfg := Config{
			Freq:    cluster.Frequencies()[int(fi)%4],
			Block:   hdfs.BlockSizes()[int(bi)%5],
			Mappers: 1 + int(mappers)%8,
		}
		data := float64(raw%20000) + 200
		_, co, err := m.Solo(RunSpec{App: a, DataMB: data, Cfg: cfg})
		if err != nil {
			return false
		}
		// A run can never use less energy than an idle node over the
		// same span, and never more than the max-power envelope.
		floor := m.IdlePower() * co.Makespan
		ceiling := 80.0 * co.Makespan
		return co.EnergyJ >= floor && co.EnergyJ <= ceiling
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPairEnergyExceedsBusierSolo(t *testing.T) {
	m := model()
	a := spec("wc", 5120, cluster.Freq2400, hdfs.Block256, 4)
	b := spec("st", 5120, cluster.Freq1600, hdfs.Block512, 4)
	pair, err := m.Pair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	_, soloA, _ := m.Solo(a)
	_, soloB, _ := m.Solo(b)
	if pair.EnergyJ <= soloA.EnergyJ || pair.EnergyJ <= soloB.EnergyJ {
		t.Fatalf("pair energy %v below a solo run (%v, %v)", pair.EnergyJ, soloA.EnergyJ, soloB.EnergyJ)
	}
	if pair.EnergyJ >= soloA.EnergyJ+soloB.EnergyJ {
		t.Fatalf("co-location saved no energy: %v vs %v serial",
			pair.EnergyJ, soloA.EnergyJ+soloB.EnergyJ)
	}
}
