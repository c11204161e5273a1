package core

import (
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
)

// MemoSTP memoizes an STP technique's predictions per (Observation a,
// Observation b) pair. Recurring jobs have recurring resource profiles
// (arXiv:1303.3632, arXiv:1301.4753); whenever the same two
// observations are paired again — replayed traces, exact (noise-free)
// profiling, policy sweeps re-running a workload, or any caller
// re-asking for a pair it already tuned — the cache answers without a
// database scan or an argmin sweep.
//
// Exact keying is deliberate: a similarity (app+size) key would hit
// constantly but return a *different* instance's answer, silently
// changing tuning decisions; exact keys are what keeps the wrapper
// bit-identical to the unmemoized run. The price is that with the
// noise-model profiler each job instance's feature vector differs, so a
// stream that re-profiles every arrival keeps the cache cold and every
// call misses.
//
// The key is the pair's two identity words (DESIGN.md §26). The router
// interns every observation it hands a shard, so within a control plane
// equal observations carry one id and unequal ones different ids, and
// a lookup probes one table by two words: no hashing of observations,
// no compare, no copy. An observation built outside any router arrives
// with id 0; the memo interns it in a table of its own, which clears
// with the memo, so such callers are cached too. Hits are therefore
// exactly those of a cache keyed by the pair under ==, which counts the
// id word: ±0 features hit each other, an interned observation and an
// un-interned copy of it are different keys, and a pair holding a NaN
// is never cached (a NaN equals nothing) and counts as a miss.
//
// The wrapper is transparent: it returns whatever the inner technique
// returned for the first occurrence of a key (inner techniques are
// deterministic, so the cached answer is the answer), forwards Name,
// and exposes the full ExpectingSTP surface via the same
// predictExpected dispatch the scheduler uses — as a shard's tuner,
// every deterministic metric (the observer's scan size looks through
// the memo), audit forecast, and tuning decision is bit-identical to
// the unmemoized run. Hit/miss counters are volatile
// (implementation-effort telemetry), so deterministic snapshots do not
// see the cache either.
//
// A MemoSTP is not safe for concurrent use. Every control plane builds
// one per shard, and one goroutine drives all of them.
type MemoSTP struct {
	Inner STP

	// table holds at most limit entries; a new pair into a full table
	// clears it, and local with it, wholesale. Which pairs survive is a
	// function of the query stream alone, so HitMiss — which the
	// flight recorder samples — is the same in every run.
	table memoTable[memoKey, memoVal]
	limit int
	local obsTable

	hits   *metrics.Counter
	misses *metrics.Counter

	// nhits/nmisses are the deterministic counts the flight recorder
	// samples at epoch barriers, unlike the volatile registry counters
	// above.
	nhits, nmisses int64
}

// memoCap bounds the table (the workload stream's working set is tiny
// — the cap only guards unbounded growth under adversarial churn).
const memoCap = 16 * 4096

// memoKey is a pair's identity words, in argument order.
type memoKey struct{ a, b uint64 }

func (k memoKey) hash() uint64 { return fpFinish(k.a*fpMul ^ k.b) }

// memoVal is one cached prediction.
type memoVal struct {
	cfg [2]mapreduce.Config
	exp PairExpectation
	err error
}

// memoTable is the id-keyed table under both of a shard's memos:
// MemoSTP's, keyed by a pair's two identity words, and the steady
// memo, keyed by a node's one-word solver input. It is open addressing
// with linear probing, at most three quarters full. A key's slot is a
// fixed function of the key and the table doubles at fixed counts, so
// its allocations are the same in every run, which a Go map's, split
// by seeded hash bits, are not. The zero key marks an empty slot, so
// the zero key is never stored and never looked up. A clear keeps the
// slots, so refilling a cleared table allocates nothing.
type memoTable[K tableKey, V any] struct {
	slots []memoSlot[K, V]
	n     int
}

// tableKey is a memoTable key: a nonzero identity word or words, with
// the hash that places them.
type tableKey interface {
	comparable
	hash() uint64
}

type memoSlot[K tableKey, V any] struct {
	k K
	v V
}

// slot returns the slot holding k, or the empty slot where k belongs.
// The table must have an empty slot.
func (t *memoTable[K, V]) slot(k K) *memoSlot[K, V] {
	var empty K
	mask := len(t.slots) - 1
	for i := int(k.hash()) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.k == k || s.k == empty {
			return s
		}
	}
}

// get returns k's value, or nil.
func (t *memoTable[K, V]) get(k K) *V {
	if t.n == 0 {
		return nil
	}
	if s := t.slot(k); s.k == k {
		return &s.v
	}
	return nil
}

// put stores v under k, which the table does not hold.
func (t *memoTable[K, V]) put(k K, v V) {
	if 4*(t.n+1) > 3*len(t.slots) {
		var empty K
		old := t.slots
		t.slots = make([]memoSlot[K, V], max(16, 2*len(old)))
		for _, s := range old {
			if s.k != empty {
				*t.slot(s.k) = s
			}
		}
	}
	*t.slot(k) = memoSlot[K, V]{k, v}
	t.n++
}

func (t *memoTable[K, V]) clear() {
	clear(t.slots)
	t.n = 0
}

// NewMemoSTP wraps inner with a memoization cache, registering
// volatile hit/miss counters in reg (nil disables the counters only —
// the cache itself always works).
func NewMemoSTP(inner STP, reg *metrics.Registry) *MemoSTP {
	return &MemoSTP{
		Inner:  inner,
		limit:  memoCap,
		hits:   reg.VolatileCounter("stp.memo.hits"),
		misses: reg.VolatileCounter("stp.memo.misses"),
	}
}

// Name implements STP.
func (m *MemoSTP) Name() string { return m.Inner.Name() }

// HitMiss reports the deterministic cumulative cache hit/miss counts.
func (m *MemoSTP) HitMiss() (hits, misses int64) {
	return m.nhits, m.nmisses
}

// PredictBest implements STP.
func (m *MemoSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	cfg, _, err := m.PredictBestExpected(a, b)
	return cfg, err
}

// PredictBestExpected implements ExpectingSTP. Both prediction entry
// points share this one cache: the stored value carries the richest
// answer the inner technique exposes (predictExpected's graceful
// degradation), so a PredictBest after a PredictBestExpected of the
// same pair — or vice versa — hits.
func (m *MemoSTP) PredictBestExpected(a, b Observation) ([2]mapreduce.Config, PairExpectation, error) {
	return m.predict(&a, &b)
}

// predict is PredictBestExpected on the pair in place; predictExpected
// calls it directly, so a scheduler's tune reaches the table without
// copying the pair.
func (m *MemoSTP) predict(a, b *Observation) ([2]mapreduce.Config, PairExpectation, error) {
	k, ok := memoKey{a.id, b.id}, true
	if k.a == 0 || k.b == 0 {
		k, ok = m.localKey(a, b)
	}
	if ok {
		if v := m.table.get(k); v != nil {
			m.hits.Inc()
			m.nhits++
			return v.cfg, v.exp, v.err
		}
	}
	m.misses.Inc()
	m.nmisses++
	cfg, exp, err := predictExpected(m.Inner, a, b)
	if !ok {
		return cfg, exp, err
	}
	if m.table.n >= m.limit {
		m.table.clear()
		if m.local.n > 0 {
			// The pair's local ids went with the table.
			m.local.reset()
			k, _ = m.localKey(a, b)
		}
	}
	m.table.put(k, memoVal{cfg: cfg, exp: exp, err: err})
	return cfg, exp, err
}

// localKey keys a pair with an un-interned side: such an observation's
// id is its id in the memo's own table. ok is false when either side
// holds a NaN, which nothing equals; neither side is interned then, so
// the local table grows only with the pairs the table caches.
func (m *MemoSTP) localKey(a, b *Observation) (k memoKey, ok bool) {
	if (a.id == 0 && *a != *a) || (b.id == 0 && *b != *b) {
		return memoKey{}, false
	}
	k = memoKey{a.id, b.id}
	if k.a == 0 {
		k.a = m.local.internAt(a, obsFingerprint(a), 0, 0).obs.id
	}
	if k.b == 0 {
		k.b = m.local.internAt(b, obsFingerprint(b), 0, 0).obs.id
	}
	return k, true
}
