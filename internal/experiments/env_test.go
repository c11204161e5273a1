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
