package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ecost/internal/mapreduce"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// contentSTP answers every pair from the pair's contents alone, so a
// cache that answered one pair with another's entry would show: the
// forecast carries a hash of each side, and a same-app pair is an
// error naming the app.
type contentSTP struct{}

func (contentSTP) Name() string { return "content" }
func (contentSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	cfg, _, err := contentSTP{}.PredictBestExpected(a, b)
	return cfg, err
}
func (contentSTP) PredictBestExpected(a, b Observation) ([2]mapreduce.Config, PairExpectation, error) {
	fa, fb := contentHash(&a), contentHash(&b)
	cfg := [2]mapreduce.Config{{Mappers: int(fa % 7)}, {Mappers: int(fb % 7)}}
	if a.App.Name == b.App.Name {
		return cfg, PairExpectation{}, fmt.Errorf("same app %s", a.App.Name)
	}
	return cfg, PairExpectation{EDP: float64(fa), TimeS: float64(fb)}, nil
}

// contentHash is FNV-1a over an observation's application name, size
// and feature bits.
func contentHash(o *Observation) uint64 {
	h := fnv.New64a()
	h.Write([]byte(o.App.Name))
	var buf [8]byte
	for _, x := range append([]float64{o.SizeGB}, o.Features[:]...) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// refMemo is the reference the memo must match: a cache keyed by the
// pair itself under ==, found by linear search, that caches no pair
// holding a NaN and clears wholesale when a new pair meets a full
// cache.
type refMemo struct {
	limit        int
	keys         [][2]Observation
	vals         []memoVal
	hits, misses int64
}

func (r *refMemo) predict(a, b Observation) memoVal {
	for i, k := range r.keys {
		if k[0] == a && k[1] == b {
			r.hits++
			return r.vals[i]
		}
	}
	r.misses++
	var v memoVal
	v.cfg, v.exp, v.err = contentSTP{}.PredictBestExpected(a, b)
	if a != a || b != b {
		return v
	}
	if len(r.keys) >= r.limit {
		r.keys, r.vals = r.keys[:0], r.vals[:0]
	}
	r.keys, r.vals = append(r.keys, [2]Observation{a, b}), append(r.vals, v)
	return v
}

// TestMemoIDExact checks the id-keyed memo against refMemo over seeded
// random query streams: every answer and the HitMiss counts after every
// query must equal the reference's. The streams draw observations from
// a small pool, so pairs repeat. Each pool entry comes as drawn, as a
// ±0 variant of a zero feature, or with a NaN, and each query side is,
// at random, one of two records stamped with that variant (as two
// submissions of one profile are) or not stamped at all (id 0). The
// memo's cap is cut to 48 pairs, so the streams run past it many times.
// The memo's own map of un-stamped observations must stay bounded by
// the pairs cached.
func TestMemoIDExact(t *testing.T) {
	apps := workloads.Apps()
	for seed := int64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		// pool[i][v] is entry i's variant v: as drawn, ±0, NaN. Its
		// first two copies are records, its third is un-stamped.
		pool := make([][3][3]Observation, 10)
		for i := range pool {
			var o Observation
			o.App = apps[rng.Intn(4)]
			o.SizeGB = float64(1 + rng.Intn(3))
			for f := range o.Features {
				o.Features[f] = float64(rng.Intn(3))
			}
			o.Features[perfctr.CPUSystem] = 0
			signed, nan := o, o
			signed.Features[perfctr.CPUSystem] = math.Copysign(0, -1)
			nan.Features[rng.Intn(len(o.Features))] = math.NaN()
			for v, x := range []Observation{o, signed, nan} {
				pool[i][v] = [3]Observation{x, x, x}
				pool[i][v][0].stamp()
				pool[i][v][1].stamp()
			}
		}
		draw := func() (o Observation, signed, nan bool) {
			v := 0
			switch rng.Intn(6) {
			case 0:
				v, signed = 1, true
			case 1:
				v, nan = 2, true
			}
			return pool[rng.Intn(len(pool))][v][rng.Intn(3)], signed, nan
		}
		memo := NewMemoSTP(contentSTP{}, nil)
		memo.limit = 48
		ref := &refMemo{limit: memo.limit}
		var signedHits, localHits, stampedHits, nanQueries, clears int
		for q := 0; q < 4000; q++ {
			a, sa, na := draw()
			b, sb, nb := draw()
			h0, _ := memo.HitMiss()
			before := memo.table.n
			cfg, exp, err := memo.PredictBestExpected(a, b)
			want := ref.predict(a, b)
			if cfg != want.cfg || math.Float64bits(exp.EDP) != math.Float64bits(want.exp.EDP) ||
				math.Float64bits(exp.TimeS) != math.Float64bits(want.exp.TimeS) || fmt.Sprint(err) != fmt.Sprint(want.err) {
				t.Fatalf("seed %d query %d: memo answered %v %+v %v, reference %v %+v %v", seed, q, cfg, exp, err, want.cfg, want.exp, want.err)
			}
			h, m := memo.HitMiss()
			if h != ref.hits || m != ref.misses {
				t.Fatalf("seed %d query %d: memo HitMiss %d/%d, reference %d/%d", seed, q, h, m, ref.hits, ref.misses)
			}
			if len(memo.local) > 2*memo.table.n {
				t.Fatalf("seed %d query %d: the memo's own map holds %d observations for %d cached pairs", seed, q, len(memo.local), memo.table.n)
			}
			hit := h > h0
			if hit && (sa || sb) {
				signedHits++
			}
			if hit && (a.id == 0 || b.id == 0) {
				localHits++
			}
			if hit && a.id != 0 && b.id != 0 {
				stampedHits++
			}
			if na || nb {
				nanQueries++
			}
			if memo.table.n < before {
				clears++
			}
		}
		if signedHits == 0 || localHits == 0 || stampedHits == 0 || nanQueries == 0 || clears == 0 {
			t.Fatalf("seed %d: %d ±0 hits, %d un-stamped hits, %d stamped hits, %d NaN queries, %d clears — want every case exercised",
				seed, signedHits, localHits, stampedHits, nanQueries, clears)
		}
	}
}
