package cluster

import "hpcsched/internal/sim"

// nodeHeap is the run loop's queue: a binary min-heap of the live nodes,
// keyed by each node's pacing bound (Cluster.bound) with ties broken by
// node index. Each entry caches its key, so a comparison reads no node
// state, and pos[i] is node i's index in ents (-1 when it is not queued).
type nodeHeap struct {
	ents []heapEnt
	pos  []int
}

type heapEnt struct {
	key  sim.Time
	node int
}

func newNodeHeap(nodes int) nodeHeap {
	h := nodeHeap{ents: make([]heapEnt, 0, nodes), pos: make([]int, nodes)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *nodeHeap) len() int { return len(h.ents) }

// top returns the node with the smallest key.
func (h *nodeHeap) top() int { return h.ents[0].node }

// minChild returns the smallest key among the nodes other than the top —
// by the heap order, the smaller of the top's two children — or MaxTime
// when the top is alone.
func (h *nodeHeap) minChild() sim.Time {
	m := sim.MaxTime
	if len(h.ents) > 1 {
		m = h.ents[1].key
	}
	if len(h.ents) > 2 && h.ents[2].key < m {
		m = h.ents[2].key
	}
	return m
}

func (h *nodeHeap) push(i int, key sim.Time) {
	h.ents = append(h.ents, heapEnt{key: key, node: i})
	h.pos[i] = len(h.ents) - 1
	h.up(len(h.ents) - 1)
}

// set re-keys queued node i and restores the heap order.
func (h *nodeHeap) set(i int, key sim.Time) {
	k := h.pos[i]
	h.ents[k].key = key
	h.up(k)
	h.down(h.pos[i])
}

// lower drops node i's key to key when it is queued and key is smaller.
func (h *nodeHeap) lower(i int, key sim.Time) {
	if k := h.pos[i]; k >= 0 && key < h.ents[k].key {
		h.ents[k].key = key
		h.up(k)
	}
}

// remove takes queued node i out of the heap.
func (h *nodeHeap) remove(i int) {
	k, last := h.pos[i], len(h.ents)-1
	moved := h.ents[last]
	h.ents = h.ents[:last]
	h.pos[i] = -1
	if k < last {
		h.place(k, moved)
		h.up(k)
		h.down(h.pos[moved.node])
	}
}

// before orders entries by (key, node).
func (a heapEnt) before(b heapEnt) bool {
	return a.key < b.key || a.key == b.key && a.node < b.node
}

// up and down move the entry at k to its place, shifting the entries it
// passes by one level.
func (h *nodeHeap) up(k int) {
	e := h.ents[k]
	for k > 0 {
		p := (k - 1) / 2
		if !e.before(h.ents[p]) {
			break
		}
		h.place(k, h.ents[p])
		k = p
	}
	h.place(k, e)
}

func (h *nodeHeap) down(k int) {
	e, n := h.ents[k], len(h.ents)
	for {
		c := 2*k + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.ents[r].before(h.ents[c]) {
			c = r
		}
		if !h.ents[c].before(e) {
			break
		}
		h.place(k, h.ents[c])
		k = c
	}
	h.place(k, e)
}

func (h *nodeHeap) place(k int, e heapEnt) {
	h.ents[k] = e
	h.pos[e.node] = k
}
