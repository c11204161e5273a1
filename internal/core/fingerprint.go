package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"ecost/internal/perfctr"
)

// Observation identity (DESIGN.md §26). The router interns every
// profile it hands a shard: it looks the observation up by its
// fingerprint, a fixed, seedless 64-bit hash of its identity words —
// the application name, the SizeGB bits and the 14 feature words —
// mixed one machine word at a time, and confirms a match with ==. An
// observation equal to an interned one gets that record and its id;
// any other gets a new record and a new id. So within one table, ids
// are equal exactly when observations are, and everything keyed by id
// downstream (MemoSTP) needs no hashing and no compare of its own.
//
// Float words fold −0 into +0 first, so observations equal under ==
// always share a fingerprint. The converse does not hold — distinct
// observations may collide — which is why a fingerprint match is
// confirmed with ==. An observation holding a NaN equals nothing, not
// even itself, so it is never shared and keeps id 0.

const (
	fpBasis = 0xcbf29ce484222325 // FNV-1a 64-bit offset basis
	fpMul   = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// fpWord mixes one 64-bit word into h. The rotation carries the
// multiply's high bits down, where later words and the table mask read
// them.
func fpWord(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*fpMul, 31)
}

// fpFloat is a float's identity word, with −0 folded into +0 (the two
// compare equal). NaNs keep their bits; they never compare equal, so
// they are never interned whatever their fingerprint.
func fpFloat(x float64) uint64 {
	if x == 0 {
		return 0
	}
	return math.Float64bits(x)
}

// fpString mixes a string's length and bytes into h, eight bytes per
// word.
func fpString(h uint64, s string) uint64 {
	h = fpWord(h, uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i&7 == 7 {
			h, w = fpWord(h, w), 0
		}
	}
	if len(s)&7 != 0 {
		h = fpWord(h, w)
	}
	return h
}

// fpFeatures mixes a feature vector's 14 words into h.
func fpFeatures(h uint64, v *perfctr.Vector) uint64 {
	for _, x := range v {
		h = fpWord(h, fpFloat(x))
	}
	return h
}

// fpFinish avalanches the accumulated state (the murmur3 64-bit
// finalizer), so every bit of the fingerprint — the table mask's low
// bits included — depends on every input word.
func fpFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// obsFingerprint is an observation's fingerprint. The id word is not
// an identity word: it is what the fingerprint leads to.
func obsFingerprint(o *Observation) uint64 {
	h := fpString(fpBasis, o.App.Name)
	h = fpWord(h, fpFloat(o.SizeGB))
	return fpFinish(fpFeatures(h, &o.Features))
}

// obsIDs is the one process-wide source of observation ids. Ids start
// at 1 and are never reused, so no two intern tables, and no two
// control planes, share one.
var obsIDs atomic.Uint64

// sameObs reports whether a and b are equal under == but for their
// id words.
func sameObs(a, b *Observation) bool {
	x, y := *a, *b
	x.id, y.id = 0, 0
	return x == y
}

// obsTable interns observations into profile records: an open-addressing
// table of records by fingerprint (linear probing, at most half full),
// whose records are carved from chunks that never move. A slot holds
// its record's fingerprint, so a probe reads a record only on a
// fingerprint match.
type obsTable struct {
	slots []obsSlot
	n     int
	recs  []profileRec
}

type obsSlot struct {
	fp  uint64
	rec *profileRec
}

// recChunk is how many records one store chunk holds.
const recChunk = 256

// intern returns the record holding an observation equal to obs, or a
// new record holding obs, spec and home if there is none. A new record
// holding a NaN is not entered in the table and keeps id 0.
func (t *obsTable) intern(obs *Observation, spec, home int) *profileRec {
	if *obs != *obs {
		return t.newRec(obs, spec, home)
	}
	return t.internAt(obs, obsFingerprint(obs), spec, home)
}

// internAt is intern for a NaN-free obs whose fingerprint is fp: one
// probe sequence finds the record or the empty slot a new one takes.
func (t *obsTable) internAt(obs *Observation, fp uint64, spec, home int) *profileRec {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := int(fp) & mask
	for ; t.slots[i].rec != nil; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.fp == fp && sameObs(&sl.rec.obs, obs) {
			return sl.rec
		}
	}
	r := t.newRec(obs, spec, home)
	r.obs.id = obsIDs.Add(1)
	t.slots[i] = obsSlot{fp, r}
	t.n++
	return r
}

// newRec carves a record from the current chunk: one allocation per
// recChunk records, instead of one per record or a store that regrows.
func (t *obsTable) newRec(obs *Observation, spec, home int) *profileRec {
	if len(t.recs) == cap(t.recs) {
		t.recs = make([]profileRec, 0, recChunk)
	}
	t.recs = append(t.recs, profileRec{obs: *obs, spec: spec, home: home})
	return &t.recs[len(t.recs)-1]
}

// grow doubles the slot array (64 slots at first) and re-enters every
// record by its stored fingerprint.
func (t *obsTable) grow() {
	old := t.slots
	t.slots = make([]obsSlot, max(64, 2*len(old)))
	mask := len(t.slots) - 1
	for _, sl := range old {
		if sl.rec == nil {
			continue
		}
		i := int(sl.fp) & mask
		for t.slots[i].rec != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = sl
	}
}

// reset forgets every record but keeps the slot array. The records
// already handed out keep their ids; an observation interned after the
// reset gets a new one.
func (t *obsTable) reset() {
	clear(t.slots)
	t.n = 0
	t.recs = nil
}
