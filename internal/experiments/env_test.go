package experiments

import (
	"testing"

	"ecost/internal/core"
	"ecost/internal/metrics"
)

// TestNewEnvTrainsOnDemand checks NewEnv times the database build but
// trains no model family: each env.train.<name>.wall_seconds gauge
// reads 0 until its technique is first used, then its training time.
func TestNewEnvTrainsOnDemand(t *testing.T) {
	reg := metrics.NewRegistry()
	opt := FastOptions()
	opt.Metrics = reg
	env, err := NewEnv(opt)
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.VolatileGauge("env.db_build.wall_seconds").Value(); v <= 0 {
		t.Fatalf("env.db_build.wall_seconds = %v, want > 0", v)
	}
	trainGauge := func(s *core.MLMSTP) float64 {
		return reg.VolatileGauge("env.train." + s.Name() + ".wall_seconds").Value()
	}
	for _, s := range []*core.MLMSTP{env.LR, env.REPTree, env.MLP} {
		if v := trainGauge(s); v != 0 {
			t.Fatalf("%s train gauge = %v before first use, want 0", s.Name(), v)
		}
	}
	if env.LR.Models() == 0 {
		t.Fatal("LR trained no models")
	}
	if got, want := trainGauge(env.LR), env.LR.TrainTime().Seconds(); got <= 0 || got != want {
		t.Fatalf("LR train gauge = %v after training, want its train time %v", got, want)
	}
	for _, s := range []*core.MLMSTP{env.REPTree, env.MLP} {
		if v := trainGauge(s); v != 0 {
			t.Fatalf("%s train gauge = %v after only LR trained, want 0", s.Name(), v)
		}
	}
}

// TestNewEnvSweepsRowsOnDemand checks neither NewEnv nor an online run
// over its lookup table sweeps the training rows: the
// env.rows_build.wall_seconds gauge reads 0 until the first model
// family trains, which sweeps them. The family's training gauge is its
// fit alone, its TrainTime, as Figure 8 reports it.
func TestNewEnvSweepsRowsOnDemand(t *testing.T) {
	reg := metrics.NewRegistry()
	opt := FastOptions()
	opt.Metrics = reg
	env, err := NewEnv(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, data, _, err := OnlineScenario(env, scenarioSpec(20), 2, core.ShardedConfig{Shards: 2, Steal: true}); err != nil || data.Jobs != 20 {
		t.Fatalf("online run: %d jobs, %v", data.Jobs, err)
	}
	if v := reg.VolatileGauge(rowsGauge).Value(); v != 0 {
		t.Fatalf("%s = %v after NewEnv and an online run, want 0", rowsGauge, v)
	}
	if env.LR.Models() == 0 {
		t.Fatal("LR trained no models")
	}
	if v := reg.VolatileGauge(rowsGauge).Value(); v <= 0 {
		t.Fatalf("%s = %v after the first training, want the sweep's seconds", rowsGauge, v)
	}
	if got, want := reg.VolatileGauge("env.train.LR.wall_seconds").Value(), env.LR.TrainTime().Seconds(); got != want {
		t.Fatalf("LR train gauge = %v, want its train time %v", got, want)
	}
}
