package core

import (
	"sync"
	"testing"

	"ecost/internal/workloads"
)

// TestOracleConcurrentHammer drives COLAO and BestSolo from many
// goroutines over the same keys. Run under -race it proves the one-lock
// memo is sound; the result comparison proves every goroutine sees the
// same answer, and the entry count that the memo holds one entry per
// key, however many goroutines searched it.
func TestOracleConcurrentHammer(t *testing.T) {
	fixture(t)
	o := NewOracle(fix.model)
	apps := []workloads.ID{
		workloads.MustLookup("wc"),
		workloads.MustLookup("gp"),
		workloads.MustLookup("st"),
	}
	const goroutines = 8
	const rounds = 3
	type result struct {
		pair PairBest
		solo SoloBest
	}
	results := make([][]result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, a := range apps {
					b := apps[(i+1)%len(apps)]
					pb, err := o.COLAO(a, 1024, b, 1024)
					if err != nil {
						t.Error(err)
						return
					}
					sb, err := o.BestSolo(a, 1024)
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], result{pair: pb, solo: sb})
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < goroutines; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d saw %d results, want %d", g, len(results[g]), len(results[0]))
		}
		for i := range results[g] {
			if results[g][i].pair.Cfg != results[0][i].pair.Cfg ||
				results[g][i].pair.Out.EDP != results[0][i].pair.Out.EDP {
				t.Fatalf("goroutine %d result %d: COLAO diverged", g, i)
			}
			if results[g][i].solo.Cfg != results[0][i].solo.Cfg ||
				results[g][i].solo.Out.EDP != results[0][i].solo.Out.EDP {
				t.Fatalf("goroutine %d result %d: BestSolo diverged", g, i)
			}
		}
	}
	if got := o.CachedPairs(); got != len(apps) {
		t.Fatalf("CachedPairs = %d, want %d (the memo should hold one entry per key)", got, len(apps))
	}
}

// TestOracleSwappedCallersShareCache checks both argument orders hit the
// same canonical memo entry and unswap consistently under concurrency.
func TestOracleSwappedCallersShareCache(t *testing.T) {
	fixture(t)
	o := NewOracle(fix.model)
	a := workloads.MustLookup("wc")
	b := workloads.MustLookup("st")
	var wg sync.WaitGroup
	fwd := make([]PairBest, 4)
	rev := make([]PairBest, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := o.COLAO(a, 1024, b, 5120)
			if err != nil {
				t.Error(err)
				return
			}
			r, err := o.COLAO(b, 5120, a, 1024)
			if err != nil {
				t.Error(err)
				return
			}
			fwd[g], rev[g] = f, r
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < 4; g++ {
		if fwd[g].Cfg[0] != rev[g].Cfg[1] || fwd[g].Cfg[1] != rev[g].Cfg[0] {
			t.Fatalf("goroutine %d: swapped call does not mirror configs: %v vs %v", g, fwd[g].Cfg, rev[g].Cfg)
		}
		if fwd[g].Out.EDP != rev[g].Out.EDP {
			t.Fatalf("goroutine %d: swapped call EDP differs", g)
		}
	}
	if got := o.CachedPairs(); got != 1 {
		t.Fatalf("CachedPairs = %d, want 1 (both orders share one canonical entry)", got)
	}
}
