// Package graph models the CDN overlay as a directed weighted graph and
// implements the paper's link-weight abstraction (§4.3, Eq. 2–3):
//
//	W_AB = (ρ·2·RTT_AB + (1−ρ)·RTT_AB) · f(u_AB)
//	f(u)  = 1/(1+e^{α·(β−u)}) + 1
//
// where ρ is the link packet-loss rate and u_AB is the maximum of the link
// utilization and the two endpoint node utilizations. α=0.5 and β=80 (the
// sigmoid operates on percentage points — with utilization expressed as a
// fraction the exponent would be nearly constant over [0,1] and the term
// would never penalize hot links).
//
// Storage is a flat CSR (compressed sparse row) layout: one rowStart
// offset array plus parallel cols/links/weight arrays, so a 600-node mesh
// is a handful of contiguous allocations instead of a pointer-chasing
// map. New edges land in a pending list and are compacted into the CSR
// arrays lazily on the first row read; per-edge updates hit the edge
// index map and mutate in place. A reverse CSR (in-edges) is maintained
// for the Brain's bound checks, which run Dijkstra toward a node. Every
// compacted edge carries its Eq. 2 weight in both directions, patched by
// the mutation that changes it, so weight reads never compute.
package graph

import (
	"math"
	"sort"
	"time"
)

// Default hyper-parameters from the paper's implementation.
const (
	Alpha = 0.5
	Beta  = 80.0 // percent
	// OverloadTarget is the pre-defined utilization target (fraction)
	// beyond which links/nodes are considered overloaded (§4.2).
	OverloadTarget = 0.80
)

// Link holds the Global Discovery metrics for one directed overlay link.
type Link struct {
	From, To int
	RTT      time.Duration
	Loss     float64 // packet loss rate in [0,1]
	Util     float64 // link utilization in [0,1]
	// Down marks a failed link: its weight is +Inf (so KSP never routes
	// through it) and the validity filter treats it like an overloaded
	// link. A fresh SetLink measurement clears it.
	Down bool
}

// Graph is a directed overlay graph over nodes 0..N-1.
// It is not safe for concurrent mutation; concurrent reads are safe once
// pending inserts are compacted (see MaterializeWeights), which is how
// the Brain's parallel recompute reads one view from many workers.
type Graph struct {
	N int

	// CSR topology: edge slot e of node i lives at
	// rowStart[i] <= e < rowStart[i+1]; cols[e] is the out-neighbor and
	// links[e] the edge payload.
	rowStart []int32
	cols     []int
	links    []Link

	// eIdx maps (from,to) to an edge slot. Slots >= len(links) index the
	// pending list (inserted since the last compaction).
	eIdx    map[int64]int32
	pending []Link

	// Reverse CSR (in-edges), rebuilt at compaction: rCols[e] is an
	// in-neighbor of the row node and rSlot[e] the forward edge slot;
	// fRev inverts rSlot (forward slot -> reverse slot).
	rRowStart []int32
	rCols     []int
	rSlot     []int32
	fRev      []int32

	nodeUtil []float64 // combined node load metric in [0,1] (§4.2 footnote)
	nodeDown []bool    // failed nodes: every incident link weighs +Inf

	// Per-edge weights: wRow[s] is the Eq. 2 weight of compacted edge
	// slot s and rW[fRev[s]] its reverse copy. compact() fills both; a
	// link mutation patches its own slot and a node mutation its out- and
	// in-row slots, so a one-link Global Discovery report costs one
	// Sigmoid instead of a sweep over every row. Pending edges get their
	// weights when they are compacted.
	version uint64
	wRow    []float64
	rW      []float64
}

func key(from, to int) int64 { return int64(from)<<32 | int64(uint32(to)) }

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	return &Graph{
		N:        n,
		rowStart: make([]int32, n+1),
		// The reverse CSR starts as valid empty rows (rebuilt at every
		// compaction): reverse sweeps are legal even before the first
		// link report lands.
		rRowStart: make([]int32, n+1),
		eIdx:      make(map[int64]int32),
		nodeUtil:  make([]float64, n),
		nodeDown:  make([]bool, n),
		version:   1,
	}
}

// Version is a counter bumped on every effective mutation (a report that
// changes nothing does not advance it). The Brain stamps its caches —
// SSSP trees, reverse distances, filtered path decisions — with it.
func (g *Graph) Version() uint64 { return g.version }

// BumpVersion advances the version without changing any metric. Callers
// that filter decisions on state held OUTSIDE the graph (e.g. the
// Brain's draining set) bump it so memoized decisions expire.
func (g *Graph) BumpVersion() { g.version++ }

// Edges returns the number of directed links (including pending inserts).
func (g *Graph) Edges() int { return len(g.links) + len(g.pending) }

// SetLink creates or updates the directed link from→to. A fresh
// measurement proves the link carries traffic, so it also clears Down.
// It reports whether the call changed anything (metrics or existence).
func (g *Graph) SetLink(from, to int, rtt time.Duration, loss, util float64) bool {
	k := key(from, to)
	if slot, ok := g.eIdx[k]; ok {
		l := g.linkAt(slot)
		if l.RTT == rtt && l.Loss == loss && l.Util == util && !l.Down {
			return false
		}
		g.version++
		l.RTT, l.Loss, l.Util = rtt, loss, util
		l.Down = false
		g.reweigh(slot)
		return true
	}
	g.version++
	g.eIdx[k] = int32(len(g.links) + len(g.pending))
	g.pending = append(g.pending, Link{From: from, To: to, RTT: rtt, Loss: loss, Util: util})
	return true
}

// linkAt resolves an edge slot to its payload (compacted or pending).
func (g *Graph) linkAt(slot int32) *Link {
	if int(slot) < len(g.links) {
		return &g.links[slot]
	}
	return &g.pending[int(slot)-len(g.links)]
}

// compact folds pending edge inserts into the CSR arrays (counting sort
// by source node; insertion order within a node is preserved, so the
// adjacency order — and therefore every downstream tie-break — is
// identical to the incremental-append layout it replaces).
func (g *Graph) compact() {
	if len(g.pending) == 0 {
		return
	}
	n := g.N
	oldRow, oldLinks := g.rowStart, g.links
	deg := make([]int32, n+1)
	for i := 0; i < n; i++ {
		deg[i] = oldRow[i+1] - oldRow[i]
	}
	for i := range g.pending {
		deg[g.pending[i].From]++
	}
	e := len(oldLinks) + len(g.pending)
	rowStart := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rowStart[i+1] = rowStart[i] + deg[i]
	}
	cols := make([]int, e)
	links := make([]Link, e)
	next := make([]int32, n)
	copy(next, rowStart[:n])
	emit := func(l Link) {
		at := next[l.From]
		next[l.From]++
		cols[at] = l.To
		links[at] = l
		g.eIdx[key(l.From, l.To)] = at
	}
	for i := 0; i < n; i++ {
		for s := oldRow[i]; s < oldRow[i+1]; s++ {
			emit(oldLinks[s])
		}
	}
	for i := range g.pending {
		emit(g.pending[i])
	}
	g.rowStart, g.cols, g.links = rowStart, cols, links
	g.pending = g.pending[:0]
	g.buildReverse()
	g.wRow = make([]float64, e)
	g.rW = make([]float64, e)
	for s := range links {
		g.reweigh(int32(s))
	}
}

// reweigh recomputes the cached weight of compacted edge slot s in both
// row directions; pending slots are weighed when they are compacted.
func (g *Graph) reweigh(s int32) {
	if int(s) >= len(g.links) {
		return
	}
	w := g.linkWeight(&g.links[s])
	g.wRow[s], g.rW[g.fRev[s]] = w, w
}

// reweighNode recomputes every compacted edge incident to id.
func (g *Graph) reweighNode(id int) {
	for s := g.rowStart[id]; s < g.rowStart[id+1]; s++ {
		g.reweigh(s)
	}
	for r := g.rRowStart[id]; r < g.rRowStart[id+1]; r++ {
		g.reweigh(g.rSlot[r])
	}
}

// buildReverse rebuilds the reverse CSR (and fRev) from the forward arrays.
func (g *Graph) buildReverse() {
	n, e := g.N, len(g.links)
	deg := make([]int32, n)
	for _, to := range g.cols {
		deg[to]++
	}
	rRow := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rRow[i+1] = rRow[i] + deg[i]
	}
	rCols := make([]int, e)
	rSlot := make([]int32, e)
	fRev := make([]int32, e)
	next := make([]int32, n)
	copy(next, rRow[:n])
	for i := 0; i < n; i++ {
		for s := g.rowStart[i]; s < g.rowStart[i+1]; s++ {
			to := g.cols[s]
			at := next[to]
			next[to]++
			rCols[at] = i
			rSlot[at] = s
			fRev[s] = at
		}
	}
	g.rRowStart, g.rCols, g.rSlot, g.fRev = rRow, rCols, rSlot, fRev
}

// Link returns the directed link from→to, or nil. The pointer stays
// valid until the next topology insertion (a SetLink on a new pair).
func (g *Graph) Link(from, to int) *Link {
	slot, ok := g.eIdx[key(from, to)]
	if !ok {
		return nil
	}
	return g.linkAt(slot)
}

// Neighbors returns the out-neighbors of node id.
func (g *Graph) Neighbors(id int) []int {
	g.compact()
	return g.cols[g.rowStart[id]:g.rowStart[id+1]]
}

// SetNodeUtil records the combined load metric for a node; it reports
// whether the value changed.
func (g *Graph) SetNodeUtil(id int, u float64) bool {
	if g.nodeUtil[id] == u {
		return false
	}
	g.version++
	g.nodeUtil[id] = u
	g.reweighNode(id)
	return true
}

// NodeUtil returns the combined load metric for a node.
func (g *Graph) NodeUtil(id int) float64 { return g.nodeUtil[id] }

// SetLinkDown marks/clears failure state on the directed link from→to;
// it reports whether the state changed.
func (g *Graph) SetLinkDown(from, to int, down bool) bool {
	slot, ok := g.eIdx[key(from, to)]
	if !ok || g.linkAt(slot).Down == down {
		return false
	}
	g.version++
	g.linkAt(slot).Down = down
	g.reweigh(slot)
	return true
}

// SetNodeDown marks/clears failure state on a node; while down, every
// link incident to it weighs +Inf and the validity filter rejects it.
// It reports whether the state changed.
func (g *Graph) SetNodeDown(id int, down bool) bool {
	if g.nodeDown[id] == down {
		return false
	}
	g.version++
	g.nodeDown[id] = down
	g.reweighNode(id)
	return true
}

// NodeDown reports a node's failure state.
func (g *Graph) NodeDown(id int) bool { return g.nodeDown[id] }

// Sigmoid is f(u) from Eq. 3, with u in [0,1] (converted internally to
// percentage points). It ranges over (1,2): ≈1 for idle links and ≈2 for
// saturated ones, with the inflection at β=80%.
func Sigmoid(u float64) float64 {
	return 1/(1+math.Exp(Alpha*(Beta-u*100))) + 1
}

// Weight returns W_AB in milliseconds per Eq. 2, or +Inf if the link does
// not exist. The first factor is the expected RTT assuming a lost packet
// is recovered on the second attempt.
func (g *Graph) Weight(from, to int) float64 {
	slot, ok := g.eIdx[key(from, to)]
	if !ok {
		return math.Inf(1)
	}
	return g.linkWeight(g.linkAt(slot))
}

func (g *Graph) linkWeight(l *Link) float64 {
	if l.Down || g.nodeDown[l.From] || g.nodeDown[l.To] {
		return math.Inf(1)
	}
	rttMs := float64(l.RTT) / float64(time.Millisecond)
	expected := l.Loss*2*rttMs + (1-l.Loss)*rttMs
	u := math.Max(l.Util, math.Max(g.nodeUtil[l.From], g.nodeUtil[l.To]))
	return expected * Sigmoid(u)
}

// NeighborWeights returns id's out-neighbors and their Eq. 2 weights, a
// slice of the flat per-edge weight row. The returned slices are owned by
// the graph and valid until the next mutation; callers must not retain or
// modify them.
func (g *Graph) NeighborWeights(id int) ([]int, []float64) {
	g.compact()
	a, b := g.rowStart[id], g.rowStart[id+1]
	return g.cols[a:b], g.wRow[a:b]
}

// InNeighborWeights is the reverse-edge analogue of NeighborWeights: the
// in-neighbors of id and the weight of each incoming edge. The Brain's
// incremental revalidation runs Dijkstra toward a node on it. Same
// ownership rules as NeighborWeights.
func (g *Graph) InNeighborWeights(id int) ([]int, []float64) {
	g.compact()
	a, b := g.rRowStart[id], g.rRowStart[id+1]
	return g.rCols[a:b], g.rW[a:b]
}

// MaterializeWeights compacts pending edge inserts, so that subsequent
// NeighborWeights / InNeighborWeights calls are pure reads. The Brain
// calls it once before fanning batch work out across goroutines: workers
// then share the graph without synchronization.
func (g *Graph) MaterializeWeights() { g.compact() }

// LinkOverloaded reports whether the from→to link or either endpoint is at
// or beyond the overload target.
func (g *Graph) LinkOverloaded(from, to int) bool {
	l := g.Link(from, to)
	if l == nil || l.Down {
		return true
	}
	return l.Util >= OverloadTarget ||
		g.nodeUtil[from] >= OverloadTarget ||
		g.nodeUtil[to] >= OverloadTarget
}

// NodeOverloaded reports whether the node is at or beyond the target.
// A down node is unusable a fortiori.
func (g *Graph) NodeOverloaded(id int) bool {
	return g.nodeDown[id] || g.nodeUtil[id] >= OverloadTarget
}

// PathOverloaded reports whether any link or node along the path is
// overloaded. The path is a node sequence including both endpoints.
func (g *Graph) PathOverloaded(path []int) bool {
	for i, n := range path {
		if g.NodeOverloaded(n) {
			return true
		}
		if i+1 < len(path) && g.LinkOverloaded(n, path[i+1]) {
			return true
		}
	}
	return false
}

// PathRTT sums the link RTTs along a path (Inf if a link is missing).
func (g *Graph) PathRTT(path []int) time.Duration {
	var total time.Duration
	for i := 0; i+1 < len(path); i++ {
		l := g.Link(path[i], path[i+1])
		if l == nil {
			return time.Duration(math.MaxInt64)
		}
		total += l.RTT
	}
	return total
}

// Clone returns a deep copy; the Brain snapshots the global view before
// each routing round so discovery updates don't race the computation.
// CSR arrays copy as flat memmoves.
func (g *Graph) Clone() *Graph {
	g.compact()
	c := New(g.N)
	c.version = g.version
	copy(c.nodeUtil, g.nodeUtil)
	copy(c.nodeDown, g.nodeDown)
	c.rowStart = append([]int32(nil), g.rowStart...)
	c.cols = append([]int(nil), g.cols...)
	c.links = append([]Link(nil), g.links...)
	c.rRowStart = append([]int32(nil), g.rRowStart...)
	c.rCols = append([]int(nil), g.rCols...)
	c.rSlot = append([]int32(nil), g.rSlot...)
	c.fRev = append([]int32(nil), g.fRev...)
	c.wRow = append([]float64(nil), g.wRow...)
	c.rW = append([]float64(nil), g.rW...)
	for k, v := range g.eIdx {
		c.eIdx[k] = v
	}
	return c
}

// SortedLinks returns every link ordered by (from, to) — a deterministic
// iteration order for callers that fold link state into reports or
// journals regardless of insertion history.
func (g *Graph) SortedLinks() []*Link {
	g.compact()
	out := make([]*Link, 0, len(g.links))
	for i := range g.links {
		out = append(out, &g.links[i])
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}
