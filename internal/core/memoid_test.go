package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ecost/internal/mapreduce"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// contentSTP answers every pair from the pair's contents alone, so a
// cache that answered one pair with another's entry would show: the
// forecast carries both fingerprints, and a same-app pair is an error
// naming the app.
type contentSTP struct{}

func (contentSTP) Name() string { return "content" }
func (contentSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	cfg, _, err := contentSTP{}.PredictBestExpected(a, b)
	return cfg, err
}
func (contentSTP) PredictBestExpected(a, b Observation) ([2]mapreduce.Config, PairExpectation, error) {
	fa, fb := obsFingerprint(&a), obsFingerprint(&b)
	cfg := [2]mapreduce.Config{{Mappers: int(fa % 7)}, {Mappers: int(fb % 7)}}
	if a.App.Name == b.App.Name {
		return cfg, PairExpectation{}, fmt.Errorf("same app %s", a.App.Name)
	}
	return cfg, PairExpectation{EDP: float64(fa), TimeS: float64(fb)}, nil
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
// a small pool, so pairs repeat, and each query side is, at random,
// interned by one of two router tables or not interned at all (id 0).
// Contents come as drawn, as a ±0 variant of a zero feature, or with a
// NaN. The memo's cap is cut to 48 pairs, so the streams run past it
// many times. The memo's own table of un-interned observations must
// stay bounded by the pairs cached.
func TestMemoIDExact(t *testing.T) {
	apps := workloads.Apps()
	for seed := int64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		pool := make([]Observation, 10)
		for i := range pool {
			o := &pool[i]
			o.App = apps[rng.Intn(4)]
			o.SizeGB = float64(1 + rng.Intn(3))
			for f := range o.Features {
				o.Features[f] = float64(rng.Intn(3))
			}
			o.Features[perfctr.CPUSystem] = 0
		}
		var routers [2]obsTable
		draw := func() (o Observation, signed, nan bool) {
			o = pool[rng.Intn(len(pool))]
			switch rng.Intn(6) {
			case 0:
				o.Features[perfctr.CPUSystem] = math.Copysign(0, -1)
				signed = true
			case 1:
				o.Features[rng.Intn(len(o.Features))] = math.NaN()
				nan = true
			}
			if k := rng.Intn(3); k < 2 {
				o = routers[k].intern(&o, 0, 0).obs
			}
			return o, signed, nan
		}
		memo := NewMemoSTP(contentSTP{}, nil)
		memo.limit = 48
		ref := &refMemo{limit: memo.limit}
		var signedHits, localHits, nanQueries, clears int
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
			if memo.local.n > 2*memo.table.n {
				t.Fatalf("seed %d query %d: the memo's own table holds %d observations for %d cached pairs", seed, q, memo.local.n, memo.table.n)
			}
			hit := h > h0
			if hit && (sa || sb) {
				signedHits++
			}
			if hit && (a.id == 0 || b.id == 0) {
				localHits++
			}
			if na || nb {
				nanQueries++
			}
			if memo.table.n < before {
				clears++
			}
		}
		if signedHits == 0 || localHits == 0 || nanQueries == 0 || clears == 0 {
			t.Fatalf("seed %d: %d ±0 hits, %d un-interned hits, %d NaN queries, %d clears — want every case exercised",
				seed, signedHits, localHits, nanQueries, clears)
		}
	}
}

// fuzzObs builds an observation from raw words: up to 14 little-endian
// feature words (missing ones are zero), the SizeGB bits and an index
// into the application list.
func fuzzObs(features []byte, size uint64, app uint8) Observation {
	apps := workloads.Apps()
	o := Observation{App: apps[int(app)%len(apps)], SizeGB: math.Float64frombits(size)}
	for i := range o.Features {
		if len(features) >= 8*(i+1) {
			o.Features[i] = math.Float64frombits(binary.LittleEndian.Uint64(features[8*i:]))
		}
	}
	return o
}

// FuzzObservationIdentity checks interning on two observations built
// from raw words: their ids are equal exactly when the observations are
// equal under == (id 0, which a NaN gets, matches nothing, not even
// another 0), an id is 0 exactly when its observation holds a NaN,
// and re-interning finds the same id. A second table enters both under
// one planted fingerprint, where equal observations must still share a
// record and unequal ones must not.
func FuzzObservationIdentity(f *testing.F) {
	word := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	one := math.Float64bits(1)
	f.Add(word(1, 2, 3), word(1, 2, 3), one, one, uint8(0), uint8(0))
	f.Add(word(1, 0, 3), word(1, math.Copysign(0, -1), 3), one, one, uint8(2), uint8(2))
	f.Add(word(1, math.NaN()), word(1, math.NaN()), one, one, uint8(1), uint8(1))
	f.Add(word(1, 2), word(1, 2), math.Float64bits(math.NaN()), one, uint8(3), uint8(3))
	f.Add(word(1, 2), word(1, 2), one, math.Float64bits(math.Copysign(0, -1)), uint8(0), uint8(1))
	f.Add(word(4), word(4), uint64(0), math.Float64bits(math.Copysign(0, -1)), uint8(5), uint8(5))
	f.Fuzz(func(t *testing.T, fa, fb []byte, sa, sb uint64, appA, appB uint8) {
		a, b := fuzzObs(fa, sa, appA), fuzzObs(fb, sb, appB)
		var tab obsTable
		ia, ib := tab.intern(&a, 0, 0).obs.id, tab.intern(&b, 0, 0).obs.id
		// Id 0 is no key: it matches nothing, not even another 0.
		if match := ia == ib && ia != 0; match != (a == b) {
			t.Fatalf("ids %d/%d for observations equal=%v", ia, ib, a == b)
		}
		for _, c := range []struct {
			id  uint64
			obs Observation
		}{{ia, a}, {ib, b}} {
			if (c.id == 0) != (c.obs != c.obs) {
				t.Fatalf("id %d for an observation holding a NaN=%v", c.id, c.obs != c.obs)
			}
			if again := tab.intern(&c.obs, 0, 0).obs.id; c.id != 0 && again != c.id {
				t.Fatalf("re-interning gave id %d, first %d", again, c.id)
			}
		}
		if a != a || b != b {
			return
		}
		var planted obsTable
		ra, rb := planted.internAt(&a, 7, 0, 0), planted.internAt(&b, 7, 0, 0)
		if (ra == rb) != (a == b) {
			t.Fatalf("under one fingerprint: shared record=%v for observations equal=%v", ra == rb, a == b)
		}
	})
}
