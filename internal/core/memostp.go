package core

import (
	"sync"
	"sync/atomic"

	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
)

// MemoSTP memoizes an STP technique's predictions keyed by the exact
// (Observation a, Observation b) pair. Recurring jobs have recurring
// resource profiles (arXiv:1303.3632, arXiv:1301.4753); whenever the
// same two observations are paired again — replayed traces, exact
// (noise-free) profiling, policy sweeps re-running a workload, or any
// caller re-asking for a pair it already tuned — the cache answers
// without a database scan or an argmin sweep.
//
// Exact keying is deliberate: a similarity (app+size) key would hit
// constantly but return a *different* instance's answer, silently
// changing tuning decisions; exact keys are what keeps the wrapper
// bit-identical to the unmemoized run. The price is that with the
// noise-model profiler each job instance's feature vector differs, so a
// stream that re-profiles every arrival keeps the cache cold and every
// call misses. A miss is not negligible next to the lookup-table scan
// it fronts (hashing two full observations through the runtime's
// per-field hash once cost more than the scan), so the miss path is
// kept cheap: the key is the pair's fingerprint (fingerprint.go), a
// fixed word-by-word hash of the app names, sizes and feature words,
// and the entries live in a per-shard slab of fixed-size chunks kept
// across clears, so neither hits nor misses allocate once the shards
// are warm.
//
// A hit requires the stored pair to equal the queried one under ==; a
// fingerprint match on different observations is a miss that
// recomputes and overwrites the entry. The answers and the hit/miss
// counts are therefore those of a cache keyed by the pair itself: ±0
// features hit each other, NaN features never hit.
//
// The wrapper is transparent: it returns whatever the inner technique
// returned for the first occurrence of a key (inner techniques are
// deterministic, so the cached answer is the answer), forwards Name,
// and exposes the full ExpectingSTP surface via the same
// predictExpected dispatch the scheduler uses — stack it under
// MeteredSTP (NewMeteredSTP(NewMemoSTP(inner, reg), model, reg)) and
// every deterministic metric, audit forecast, and tuning decision is
// bit-identical to the unmemoized run. Hit/miss counters are volatile
// (implementation-effort telemetry), so deterministic snapshots do not
// see the cache either.
//
// Like the Oracle, the cache is sharded: one mutex per shard, selected
// by the fingerprint's low bits, so concurrent policy sweeps do not
// serialize on a single lock. The fingerprint has no seed, so which
// shard fills and clears at memoShardCap — and with it the HitMiss
// counts the flight recorder samples — is the same in every run.
// Unlike the Oracle there is no singleflight — the online event loop is
// single-threaded, and for concurrent callers recomputing a prediction
// is cheap enough that waiting infrastructure would cost more than it
// saves.
type MemoSTP struct {
	Inner STP

	shards [memoShards]memoShard

	hits   *metrics.Counter
	misses *metrics.Counter

	// nhits/nmisses are the deterministic shadow counts the flight
	// recorder samples at epoch barriers. Unlike the volatile registry
	// counters above, their totals are a pure function of the query
	// stream (atomics only order concurrent sweeps; the sum is
	// order-independent), so epoch records stay byte-identical.
	nhits   atomic.Int64
	nmisses atomic.Int64
}

// memoShards is a power of two so shard selection is a mask.
const memoShards = 16

// memoShardCap bounds each shard's entry count; a full shard is
// cleared wholesale (the workload stream's working set is tiny — the
// cap only guards unbounded growth under adversarial churn).
const memoShardCap = 4096

// memoChunk is how many entries one slab chunk holds (~20 KB); a
// memo shard holding a handful of recurring pairs allocates one chunk.
// memoShardCap is a multiple of it.
const memoChunk = 32

// memoShard maps pair fingerprints to slots of a slab of entries. The
// slab grows one fixed-size chunk at a time — a chunk never moves, so a
// growing shard copies nothing — and slot i lives in chunk i/memoChunk.
// A clear empties the index and the slot count but keeps the map's
// buckets and every chunk, so a churning stream refills the same memory
// instead of allocating.
type memoShard struct {
	mu     sync.Mutex
	idx    map[uint64]int32
	chunks []*[memoChunk]memoEntry
	n      int32 // slots in use
}

// slot returns slot i of the slab.
func (sh *memoShard) slot(i int32) *memoEntry {
	return &sh.chunks[i/memoChunk][i%memoChunk]
}

// memoEntry is one cached prediction together with the exact pair it
// answers: the index is keyed by fingerprint only, so a hit compares a
// and b in full.
type memoEntry struct {
	a, b Observation
	cfg  [2]mapreduce.Config
	exp  PairExpectation
	err  error
}

// NewMemoSTP wraps inner with a sharded memoization cache, registering
// volatile hit/miss counters in reg (nil disables the counters only —
// the cache itself always works).
func NewMemoSTP(inner STP, reg *metrics.Registry) *MemoSTP {
	m := &MemoSTP{
		Inner:  inner,
		hits:   reg.VolatileCounter("stp.memo.hits"),
		misses: reg.VolatileCounter("stp.memo.misses"),
	}
	for i := range m.shards {
		m.shards[i].idx = make(map[uint64]int32)
	}
	return m
}

// Name implements STP.
func (m *MemoSTP) Name() string { return m.Inner.Name() }

// HitMiss reports the deterministic cumulative cache hit/miss counts.
func (m *MemoSTP) HitMiss() (hits, misses int64) {
	return m.nhits.Load(), m.nmisses.Load()
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
	fp := pairFingerprint(&a, &b)
	sh := &m.shards[fp&(memoShards-1)]
	sh.mu.Lock()
	if i, ok := sh.idx[fp]; ok {
		if e := sh.slot(i); e.a == a && e.b == b {
			cfg, exp, err := e.cfg, e.exp, e.err
			sh.mu.Unlock()
			m.hits.Inc()
			m.nhits.Add(1)
			return cfg, exp, err
		}
	}
	sh.mu.Unlock()
	m.misses.Inc()
	m.nmisses.Add(1)
	cfg, exp, err := predictExpected(m.Inner, a, b)
	sh.mu.Lock()
	sh.put(fp, memoEntry{a: a, b: b, cfg: cfg, exp: exp, err: err})
	sh.mu.Unlock()
	return cfg, exp, err
}

// put stores e under fp, overwriting whatever the fingerprint held (a
// colliding pair, or a concurrent miss on the same pair); a new key
// into a full shard clears the shard first. The caller holds sh.mu.
func (sh *memoShard) put(fp uint64, e memoEntry) {
	if i, ok := sh.idx[fp]; ok {
		*sh.slot(i) = e
		return
	}
	if sh.n >= memoShardCap {
		clear(sh.idx)
		for _, c := range sh.chunks {
			clear(c[:]) // drop the cleared entries' error references
		}
		sh.n = 0
	}
	if int(sh.n) == len(sh.chunks)*memoChunk {
		sh.chunks = append(sh.chunks, new([memoChunk]memoEntry))
	}
	sh.idx[fp] = sh.n
	*sh.slot(sh.n) = e
	sh.n++
}
