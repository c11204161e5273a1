package core

import (
	"math"
	"math/bits"

	"ecost/internal/perfctr"
)

// A fingerprint is the one key scheme of the online path's two memos —
// MemoSTP's prediction cache and the scheduler's classify memo. It is a
// fixed, seedless 64-bit hash of an observation's identity words: the
// application name, the SizeGB bits and the 14 feature words, mixed one
// machine word at a time. Float words fold −0 into +0 first, so
// observations equal under == (the memos' hit test) always share a
// fingerprint. The converse does not hold — distinct observations may
// collide — so a memo hit still compares the stored observations in
// full, and a fingerprint match on different observations is a miss.
//
// Because there is no seed, the fingerprint of an observation, and with
// it the shard an entry lands in and the moment a full shard clears, is
// the same in every run and every process.

const (
	fpBasis = 0xcbf29ce484222325 // FNV-1a 64-bit offset basis
	fpMul   = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
)

// fpWord mixes one 64-bit word into h. The rotation carries the
// multiply's high bits down, where later words and the shard mask read
// them.
func fpWord(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*fpMul, 31)
}

// fpFloat is a float's identity word, with −0 folded into +0 (the two
// compare equal). NaNs keep their bits; they never compare equal, so
// they never hit whatever their fingerprint.
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

// fpObservation mixes an observation's identity words into h.
func fpObservation(h uint64, o *Observation) uint64 {
	h = fpString(h, o.App.Name)
	h = fpWord(h, fpFloat(o.SizeGB))
	return fpFeatures(h, &o.Features)
}

// fpFinish avalanches the accumulated state (the murmur3 64-bit
// finalizer), so every bit of the fingerprint — the shard mask's low
// bits included — depends on every input word.
func fpFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pairFingerprint keys MemoSTP: the ordered pair (a, b).
func pairFingerprint(a, b *Observation) uint64 {
	return fpFinish(fpObservation(fpObservation(fpBasis, a), b))
}

// featureFingerprint keys the classify memo: Classify reads only the
// feature vector.
func featureFingerprint(v *perfctr.Vector) uint64 {
	return fpFinish(fpFeatures(fpBasis, v))
}
