package core

import "math/bits"

// nodeSet is a fixed-capacity bitmap over node ids backing the dispatch
// indexes (free nodes, half-busy nodes). min returns the lowest set id,
// which matches the legacy linear scan's first-match choice exactly —
// the scheduler's node slice is ordered by id — while costing O(words)
// instead of O(nodes) resident-set inspections per placement. The steal
// pass keeps one over shard ids: the shards with queued work.
type nodeSet struct{ words []uint64 }

func newNodeSet(n int) nodeSet { return nodeSet{words: make([]uint64, (n+63)/64)} }

// set adds or removes one id.
func (s nodeSet) set(id int, present bool) {
	if present {
		s.words[id>>6] |= 1 << (uint(id) & 63)
	} else {
		s.words[id>>6] &^= 1 << (uint(id) & 63)
	}
}

// has reports membership.
func (s nodeSet) has(id int) bool { return s.words[id>>6]&(1<<(uint(id)&63)) != 0 }

// min returns the smallest member id, or false when the set is empty.
func (s nodeSet) min() (int, bool) {
	for w, word := range s.words {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// next returns the smallest member in [from, to), or -1 when there is
// none.
func (s nodeSet) next(from, to int) int {
	if from >= to {
		return -1
	}
	w := from >> 6
	word := s.words[w] &^ (1<<(uint(from)&63) - 1) // drop ids below from
	for word == 0 {
		if w++; w<<6 >= to {
			return -1
		}
		word = s.words[w]
	}
	if id := w<<6 | bits.TrailingZeros64(word); id < to {
		return id
	}
	return -1
}

// count returns the number of members (an O(words) popcount walk).
func (s nodeSet) count() int {
	n := 0
	for _, word := range s.words {
		n += bits.OnesCount64(word)
	}
	return n
}
