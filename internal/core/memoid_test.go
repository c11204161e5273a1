package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
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
	if a.App.Name() == b.App.Name() {
		return cfg, PairExpectation{}, fmt.Errorf("same app %s", a.App.Name())
	}
	return cfg, PairExpectation{EDP: float64(fa), TimeS: float64(fb)}, nil
}

// contentHash is FNV-1a over an observation's application name, size
// and feature bits.
func contentHash(o *Observation) uint64 {
	h := fnv.New64a()
	h.Write([]byte(o.App.Name()))
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
	apps := workloads.IDs()
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

// storeAll is a memo that stores every key: it reaches its MemoSTP
// through PredictBestExpected, which never passes the single-use bit,
// so every miss probes and fills the table.
type storeAll struct{ *MemoSTP }

// stepTime fires c's events at its next event time and takes the steal
// pass Run's drive takes there, and reports false when c has no event
// left.
func stepTime(c *ShardedScheduler) bool {
	t, ok := c.nextAt()
	if !ok {
		return false
	}
	barrier := c.barrierAt(t)
	for c.step(t) {
	}
	if barrier {
		c.stealPass(t)
	}
	return true
}

// TestSharedMemoSingleUse runs one MemoSTP as the tuner of every shard
// of two control planes, one with ProfileMemo on over recurring
// (app, size) pairs and one with it off over a noisy stream of every
// application at continuous sizes, stepping the planes' event times
// alternately so their tunes interleave. The memo skips the table for
// the second plane's single-use pairs. A twin setup runs on a storeAll
// memo. After every step the two memos' HitMiss must be equal, and so
// must both planes' completions at the end. The cap is cut to 256
// keys, so the shared table clears many times mid-stream, on the
// single-use keys' count as on its own entries.
func TestSharedMemoSingleUse(t *testing.T) {
	fixture(t)
	type arrival struct {
		app      workloads.ID
		size, at float64
	}
	stream := func(seed int64, apps []workloads.ID, size func(*sim.RNG) float64, gap float64) []arrival {
		rng := sim.NewRNG(seed)
		out := make([]arrival, 1500)
		at := 0.0
		for i := range out {
			at += rng.Exp(gap)
			out[i] = arrival{apps[rng.Intn(len(apps))], size(rng), at}
		}
		return out
	}
	recurring := stream(1, workloads.TrainingIDs(), func(r *sim.RNG) float64 { return float64(1 + r.Intn(4)) }, 2)
	noisy := stream(2, workloads.IDs(), func(r *sim.RNG) float64 { return 1 + 10*r.Float64() }, 2)
	const limit = 256
	plane := func(tuner STP, profileMemo bool, arrivals []arrival) *ShardedScheduler {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(7)),
			func() STP { return tuner }, 48, ShardedConfig{Shards: 4, Steal: true, ProfileMemo: profileMemo})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			c.Submit(a.app, a.size, a.at)
		}
		finishSubmitted(c)
		return c
	}
	shared, ref := NewMemoSTP(fix.lkt, nil), NewMemoSTP(fix.lkt, nil)
	shared.limit, ref.limit = limit, limit
	planes := [2][2]*ShardedScheduler{
		{plane(shared, true, recurring), plane(shared, false, noisy)},
		{plane(storeAll{ref}, true, recurring), plane(storeAll{ref}, false, noisy)},
	}
	clears, single := 0, int64(0)
	for live := [2]bool{true, true}; live[0] || live[1]; {
		for p := range live {
			if !live[p] {
				continue
			}
			before := shared.counted
			h0, m0 := shared.HitMiss()
			p0, _ := shared.probes, shared.inserts
			live[p] = stepTime(planes[0][p])
			if stepTime(planes[1][p]) != live[p] {
				t.Fatalf("plane %d: the twins ran out of events at different steps", p)
			}
			if shared.counted < before {
				clears++
			}
			h, m := shared.HitMiss()
			single += (h - h0) + (m - m0) - (shared.probes - p0)
			if rh, rm := ref.HitMiss(); h != rh || m != rm {
				t.Fatalf("shared memo HitMiss %d/%d, storing every key %d/%d", h, m, rh, rm)
			}
		}
	}
	for p := range planes[0] {
		for _, c := range []*ShardedScheduler{planes[0][p], planes[1][p]} {
			if _, _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := planes[0][p].Completed(), planes[1][p].Completed(); !slices.Equal(a, b) {
			t.Fatalf("plane %d: completions differ between the shared memo and the storing one", p)
		}
	}
	h, m := shared.HitMiss()
	if h == 0 || single == 0 || clears < 4 || ref.inserts-shared.inserts != single {
		t.Fatalf("%d hits / %d misses, %d single-use tunes (%d fewer inserts), %d clears: want hits, single-use tunes that skip the table and several clears",
			h, m, single, ref.inserts-shared.inserts, clears)
	}
}
