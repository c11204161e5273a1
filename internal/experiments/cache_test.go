package experiments

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ecost/internal/metrics"
	"ecost/internal/workloads"
)

// TestEnvCacheRoundTrip drives the artifact cache end to end: a miss
// builds and populates the entry, a hit loads it, and the loaded Env is
// experiment-equivalent — same predictions, same noise stream, and
// (through the training rows it sweeps on first use) the same Table-1
// numbers.
func TestEnvCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: cache round trip builds a full Env")
	}
	root := t.TempDir()
	opt := FastOptions()
	fresh, hit, err := LoadOrBuildEnv(opt, root)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first LoadOrBuildEnv reported a cache hit in an empty dir")
	}
	if _, err := os.Stat(filepath.Join(CacheDir(root, opt), manifestFile)); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}
	// The registry is not part of the cache key; it watches the loaded
	// database's row sweep.
	reg := metrics.NewRegistry()
	cachedOpt := opt
	cachedOpt.Metrics = reg
	cached, hit, err := LoadOrBuildEnv(cachedOpt, root)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second LoadOrBuildEnv missed the cache")
	}

	if len(cached.DB.Entries) != len(fresh.DB.Entries) {
		t.Fatalf("cached entries = %d, want %d", len(cached.DB.Entries), len(fresh.DB.Entries))
	}
	if v := reg.VolatileGauge(rowsGauge).Value(); v != 0 {
		t.Fatalf("cache-loaded database swept its training rows on load (%s = %v)", rowsGauge, v)
	}

	// Identical predictions from every technique, on noisy observations
	// drawn from both envs' (independent but same-seed) profilers.
	for _, pair := range [][2]string{{"wc", "st"}, {"gp", "wc"}} {
		fa, err := fresh.Observe(workloads.MustLookup(pair[0]), 1)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fresh.Observe(workloads.MustLookup(pair[1]), 5)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := cached.Observe(workloads.MustLookup(pair[0]), 1)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := cached.Observe(workloads.MustLookup(pair[1]), 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fa.Features, ca.Features) || !reflect.DeepEqual(fb.Features, cb.Features) {
			t.Fatal("cache-loaded env's profiler noise stream diverges from a fresh build")
		}
		for i, s := range fresh.STPs() {
			want, werr := s.PredictBest(fa, fb)
			got, gerr := cached.STPs()[i].PredictBest(ca, cb)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s on %v: error mismatch: %v vs %v", s.Name(), pair, werr, gerr)
			}
			if want != got {
				t.Fatalf("%s on %v: cached predicts %v, fresh %v", s.Name(), pair, got, want)
			}
		}
	}

	// Table 1 reads the cached env's training rows, swept on this first
	// use; they must reproduce the fresh build's error numbers exactly.
	_, freshT1, err := Table1ModelAPE(fresh)
	if err != nil {
		t.Fatal(err)
	}
	_, cachedT1, err := Table1ModelAPE(cached)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := cached.DB.Rows(); err != nil || len(rows) == 0 || reg.VolatileGauge(rowsGauge).Value() <= 0 {
		t.Fatalf("Table 1 did not sweep the cached database's rows: %d class pairs, %v", len(rows), err)
	}
	for name, want := range freshT1.Average {
		got, ok := cachedT1.Average[name]
		if !ok || math.Abs(got-want) > 1e-12 {
			t.Fatalf("Table 1 average APE for %s: cached %v, fresh %v", name, got, want)
		}
	}
}

// TestEnvCacheCorruptEntryRebuilds checks a damaged entry is discarded
// instead of poisoning every later run.
func TestEnvCacheCorruptEntryRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: rebuild after corruption builds a full Env")
	}
	root := t.TempDir()
	opt := FastOptions()
	dir := CacheDir(root, opt)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	env, hit, err := LoadOrBuildEnv(opt, root)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("corrupt entry reported as a hit")
	}
	if env == nil || len(env.DB.Entries) == 0 {
		t.Fatal("rebuild after corruption returned an empty env")
	}
	if _, _, err := LoadOrBuildEnv(opt, root); err != nil {
		t.Fatal(err)
	}
}
