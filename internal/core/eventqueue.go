package core

// eventQueue is the control plane's clock and completion heap
// (DESIGN.md §24). The online controller (Figure 4) reacts to two
// events only: a job arrives, or a node's next job finishes. Arrivals
// wait in the ShardedScheduler's sorted ring; the queue holds at most
// one pending completion per node, in a 4-ary min-heap ordered by
// (at, seq). Each node keeps its entry's heap index, so a reschedule
// moves the entry in place. Every set draws a fresh seq, so
// equal-time completions fire in the order they were last scheduled.
type eventQueue struct {
	now  float64
	seq  int64
	heap []completion
}

// completion is one node's pending completion event.
type completion struct {
	at  float64
	seq int64
	n   *onlineNode
}

// before is the queue's total order: time, then scheduling seq.
func before(a, b *completion) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// set schedules n's completion at time at with a fresh seq, moving the
// node's pending entry if it has one.
func (q *eventQueue) set(n *onlineNode, at float64) {
	c := completion{at: at, seq: q.seq, n: n}
	q.seq++
	if n.hi < 0 {
		n.hi = len(q.heap)
		q.heap = append(q.heap, c)
	} else {
		q.heap[n.hi] = c
	}
	q.fix(n.hi)
}

// clear drops n's pending completion, if any.
func (q *eventQueue) clear(n *onlineNode) {
	i := n.hi
	if i < 0 {
		return
	}
	n.hi = -1
	last := len(q.heap) - 1
	q.heap[i] = q.heap[last]
	q.heap[last] = completion{}
	q.heap = q.heap[:last]
	if i < last {
		q.fix(i)
	}
}

// fix sifts the entry at i up or down to its place, keeping every
// moved node's heap index current.
func (q *eventQueue) fix(i int) {
	h := q.heap
	c := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !before(&c, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].n.hi = i
		i = p
	}
	for {
		m := 4*i + 1
		if m >= len(h) {
			break
		}
		for k, end := m+1, min(m+4, len(h)); k < end; k++ {
			if before(&h[k], &h[m]) {
				m = k
			}
		}
		if !before(&h[m], &c) {
			break
		}
		h[i] = h[m]
		h[i].n.hi = i
		i = m
	}
	h[i] = c
	c.n.hi = i
}
