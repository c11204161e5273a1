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
// stream that re-profiles every arrival never hits. Its router hands
// out one record per submission, and the shard passes that fact with
// each tune: such a pair cannot recur, so the memo counts a miss and
// asks the inner technique without probing or filling the table
// (DESIGN.md §34).
//
// The key is the pair's two identity words (DESIGN.md §26). The router
// stamps every record it hands a shard with an id of its own, so a
// lookup probes one table by two words: no hashing of observations, no
// compare, no copy. An observation built outside any router arrives
// with id 0; the memo gives it an id from a map of its own, keyed by
// the observation, which clears with the memo, so such callers are
// cached too. Hits are therefore exactly those of a cache keyed by the
// pair under ==, which counts the id word: ±0 features hit each other,
// two records never share a key even when their profiles are equal, a
// stamped observation and an un-stamped copy of it are different keys,
// and a pair holding a NaN is never cached (a NaN equals nothing) and
// counts as a miss.
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
	// clears it, and local with it, wholesale. counted is the table's
	// count had every single-use pair been stored too: the table clears
	// when counted reaches limit, so it clears where it would if it
	// stored them. local ids the un-stamped observations of the cached
	// pairs. Which pairs survive is a function of the query stream
	// alone, so HitMiss — which the flight recorder samples — is the
	// same in every run.
	table   memoTable[memoKey, memoVal]
	limit   int
	counted int
	local   map[Observation]uint64

	hits   *metrics.Counter
	misses *metrics.Counter

	// nhits/nmisses are the deterministic counts the flight recorder
	// samples at epoch barriers, unlike the volatile registry counters
	// above.
	nhits, nmisses int64

	// probes / inserts count table lookups and stores, deterministic
	// like nhits/nmisses.
	probes, inserts int64
}

// memoCap bounds the table (the workload stream's working set is tiny
// — the cap only guards unbounded growth under adversarial churn).
const memoCap = 16 * 4096

// memoKey is a pair's identity words, in argument order.
type memoKey struct{ a, b uint64 }

func (k memoKey) hash() uint64 { return fpFinish(k.a*fpMul ^ k.b) }

// fpMul is 2^64 / golden ratio, odd: a key's first word is mixed by one
// multiply before fpFinish.
const fpMul = 0x9e3779b97f4a7c15

// fpFinish avalanches a key's words (the murmur3 64-bit finalizer), so
// every bit of the hash, the table mask's low bits included, depends on
// every input bit.
func fpFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// memoVal is one cached prediction.
type memoVal struct {
	cfg [2]mapreduce.Config
	exp PairExpectation
	err error
}

// memoTable is the id-keyed table under both memos: MemoSTP's, keyed
// by a pair's two identity words, and the control plane's steady memo,
// keyed by a node's one-word solver input. It is open addressing
// with linear probing, at most three quarters full. Slots are stored
// in groups of eight, each group's keys ahead of its values, so a
// probe scans 8- or 16-byte keys and reads a value only on a hit
// (DESIGN.md §34); slot i is lane i%8 of group i/8, so the probe
// order is that of a flat slot array. The groups are one allocation,
// the size of the flat slots they replace. A key's slot is a fixed
// function of the key and the table doubles at fixed counts, so its
// allocations are the same in every run, which a Go map's, split by
// seeded hash bits, are not. The zero key marks an empty slot, so the
// zero key is never stored and never looked up. A clear empties the
// keys and keeps the groups, so refilling a cleared table allocates
// nothing; a value is written before its slot is read again.
type memoTable[K tableKey, V any] struct {
	groups []memoGroup[K, V]
	n      int
}

// tableKey is a memoTable key: a nonzero identity word or words, with
// the hash that places them.
type tableKey interface {
	comparable
	hash() uint64
}

// memoGroup is eight consecutive slots: their keys, then their values.
type memoGroup[K tableKey, V any] struct {
	keys [groupSlots]K
	vals [groupSlots]V
}

// groupSlots is the slot count of a memoGroup; table sizes are powers
// of two from 16, so every table is whole groups.
const groupSlots = 8

// slots is the table's slot count.
func (t *memoTable[K, V]) slots() int { return groupSlots * len(t.groups) }

// key returns slot i's key.
func (t *memoTable[K, V]) key(i int) *K {
	return &t.groups[uint(i)/groupSlots].keys[uint(i)%groupSlots]
}

// slot returns the index of the slot holding k, or of the empty slot
// where k belongs. The table must have an empty slot.
func (t *memoTable[K, V]) slot(k K) int {
	var empty K
	mask := t.slots() - 1
	for i := int(k.hash()) & mask; ; i = (i + 1) & mask {
		if c := *t.key(i); c == k || c == empty {
			return i
		}
	}
}

// get returns k's value, or nil.
func (t *memoTable[K, V]) get(k K) *V {
	if t.n == 0 {
		return nil
	}
	if i := t.slot(k); *t.key(i) == k {
		return &t.groups[uint(i)/groupSlots].vals[uint(i)%groupSlots]
	}
	return nil
}

// put stores v under k, which the table does not hold.
func (t *memoTable[K, V]) put(k K, v V) {
	if 4*(t.n+1) > 3*t.slots() {
		var empty K
		old := t.groups
		t.groups = make([]memoGroup[K, V], max(16/groupSlots, 2*len(old)))
		for gi := range old {
			g := &old[gi]
			for j, key := range g.keys {
				if key != empty {
					t.set(t.slot(key), key, g.vals[j])
				}
			}
		}
	}
	t.set(t.slot(k), k, v)
	t.n++
}

// set writes k and v into slot i.
func (t *memoTable[K, V]) set(i int, k K, v V) {
	g, j := &t.groups[uint(i)/groupSlots], uint(i)%groupSlots
	g.keys[j], g.vals[j] = k, v
}

func (t *memoTable[K, V]) clear() {
	for i := range t.groups {
		clear(t.groups[i].keys[:])
	}
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
	return m.predict(&profileRec{obs: a}, &profileRec{obs: b})
}

// predict is PredictBestExpected on two records in place;
// predictExpected calls it directly, so a scheduler's tune reaches the
// table without copying the pair. b.single reports that b's record
// belongs to one submission. With both sides stamped, the pair's key
// then occurs in this one call, so no entry can answer it and none
// would be read: the call is a miss with no probe and no insert, and
// the key only counts toward the cap.
func (m *MemoSTP) predict(a, b *profileRec) ([2]mapreduce.Config, PairExpectation, error) {
	k, ok := memoKey{a.obs.id, b.obs.id}, true
	stamped := k.a != 0 && k.b != 0
	if !stamped {
		k, ok = m.localKey(&a.obs, &b.obs)
	}
	store := ok && !(b.single && stamped)
	if store {
		m.probes++
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
	if m.counted >= m.limit {
		m.table.clear()
		m.counted = 0
		if len(m.local) > 0 {
			// The pair's local ids went with the table.
			clear(m.local)
			k, _ = m.localKey(&a.obs, &b.obs)
		}
	}
	m.counted++
	if store {
		m.table.put(k, memoVal{cfg: cfg, exp: exp, err: err})
		m.inserts++
	}
	return cfg, exp, err
}

// localKey keys a pair with an un-stamped side: such an observation's
// id is its id in the memo's own map. ok is false when either
// un-stamped side holds a NaN, which nothing equals; neither side is
// entered then, so the map grows only with the pairs the table caches.
func (m *MemoSTP) localKey(a, b *Observation) (k memoKey, ok bool) {
	if (a.id == 0 && *a != *a) || (b.id == 0 && *b != *b) {
		return memoKey{}, false
	}
	return memoKey{m.localID(a), m.localID(b)}, true
}

// localID is o's id, or for an un-stamped o the one the memo's own map
// gives it.
func (m *MemoSTP) localID(o *Observation) uint64 {
	if o.id != 0 {
		return o.id
	}
	id, ok := m.local[*o]
	if !ok {
		if m.local == nil {
			m.local = make(map[Observation]uint64)
		}
		id = obsIDs.Add(1)
		m.local[*o] = id
	}
	return id
}
