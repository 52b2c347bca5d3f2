package graph

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"livenet/internal/sim"
)

func TestSigmoidRange(t *testing.T) {
	if err := quick.Check(func(u16 uint16) bool {
		u := float64(u16%1001) / 1000
		f := Sigmoid(u)
		// Mathematically f ∈ (1,2); in float64 the low end rounds to 1.
		return f >= 1 && f < 2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidShape(t *testing.T) {
	// Idle link ≈ 1, saturated ≈ 2, inflection at 80%.
	if f := Sigmoid(0); f > 1.001 {
		t.Fatalf("Sigmoid(0) = %v, want ~1", f)
	}
	if f := Sigmoid(1); f < 1.99 {
		t.Fatalf("Sigmoid(1) = %v, want ~2", f)
	}
	if f := Sigmoid(0.80); math.Abs(f-1.5) > 1e-9 {
		t.Fatalf("Sigmoid(0.8) = %v, want 1.5 at inflection", f)
	}
	if Sigmoid(0.9) <= Sigmoid(0.7) {
		t.Fatal("sigmoid should be increasing")
	}
}

func TestWeightEq2(t *testing.T) {
	g := New(2)
	g.SetLink(0, 1, 100*time.Millisecond, 0, 0)
	// No loss, idle: weight = RTT * ~1.
	w := g.Weight(0, 1)
	if w < 100 || w > 101 {
		t.Fatalf("idle lossless weight = %v, want ~100 ms", w)
	}
	// 100% loss doubles the expected RTT.
	g.SetLink(0, 1, 100*time.Millisecond, 1, 0)
	w = g.Weight(0, 1)
	if w < 200 || w > 202 {
		t.Fatalf("full-loss weight = %v, want ~200 ms", w)
	}
	// 10% loss: 0.1*200 + 0.9*100 = 110 ms.
	g.SetLink(0, 1, 100*time.Millisecond, 0.1, 0)
	w = g.Weight(0, 1)
	if w < 110 || w > 111.2 {
		t.Fatalf("10%%-loss weight = %v, want ~110 ms", w)
	}
}

func TestWeightUsesMaxUtil(t *testing.T) {
	g := New(2)
	g.SetLink(0, 1, 100*time.Millisecond, 0, 0.2)
	idle := g.Weight(0, 1)
	g.SetNodeUtil(1, 0.95) // endpoint hot even though link is cool
	hot := g.Weight(0, 1)
	if hot <= idle*1.5 {
		t.Fatalf("hot endpoint should dominate: idle=%v hot=%v", idle, hot)
	}
}

func TestWeightMissingLink(t *testing.T) {
	g := New(2)
	if !math.IsInf(g.Weight(0, 1), 1) {
		t.Fatal("missing link should weigh +Inf")
	}
}

func TestSetLinkUpdatesInPlace(t *testing.T) {
	g := New(2)
	g.SetLink(0, 1, 10*time.Millisecond, 0, 0)
	g.SetLink(0, 1, 20*time.Millisecond, 0.5, 0.5)
	if len(g.Neighbors(0)) != 1 {
		t.Fatalf("duplicate adjacency entries: %v", g.Neighbors(0))
	}
	if l := g.Link(0, 1); l.RTT != 20*time.Millisecond || l.Loss != 0.5 {
		t.Fatalf("update lost: %+v", l)
	}
}

func TestOverloadChecks(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, time.Millisecond, 0, 0.5)
	g.SetLink(1, 2, time.Millisecond, 0, 0.85)
	if g.LinkOverloaded(0, 1) {
		t.Fatal("0->1 at 50% should not be overloaded")
	}
	if !g.LinkOverloaded(1, 2) {
		t.Fatal("1->2 at 85% should be overloaded")
	}
	g.SetNodeUtil(0, 0.9)
	if !g.LinkOverloaded(0, 1) {
		t.Fatal("link with hot endpoint should count as overloaded")
	}
	if !g.PathOverloaded([]int{0, 1, 2}) {
		t.Fatal("path through hot node should be overloaded")
	}
	if g.PathOverloaded([]int{1, 2}) == false {
		// 1->2 util 0.85 >= 0.80
		t.Fatal("path with hot link should be overloaded")
	}
	if !g.LinkOverloaded(2, 0) {
		t.Fatal("missing link should be treated as overloaded")
	}
}

func TestPathRTT(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, 10*time.Millisecond, 0, 0)
	g.SetLink(1, 2, 15*time.Millisecond, 0, 0)
	if got := g.PathRTT([]int{0, 1, 2}); got != 25*time.Millisecond {
		t.Fatalf("PathRTT = %v", got)
	}
	if got := g.PathRTT([]int{0}); got != 0 {
		t.Fatalf("single-node path RTT = %v", got)
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, 10*time.Millisecond, 0.1, 0.2)
	g.SetNodeUtil(2, 0.7)
	c := g.Clone()
	g.SetLink(0, 1, 99*time.Millisecond, 0.9, 0.9)
	g.SetNodeUtil(2, 0.99)
	if c.Link(0, 1).RTT != 10*time.Millisecond {
		t.Fatal("clone shares link storage with original")
	}
	if c.NodeUtil(2) != 0.7 {
		t.Fatal("clone shares node utils with original")
	}
}

func TestNeighborWeightsMatchesWeight(t *testing.T) {
	g := New(8)
	rng := sim.NewSource(11).Stream("gw")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && rng.Bernoulli(0.7) {
				g.SetLink(i, j, time.Duration(5+rng.Intn(80))*time.Millisecond,
					rng.Float64()*0.01, rng.Float64())
			}
		}
		g.SetNodeUtil(i, rng.Float64())
	}
	for i := 0; i < 8; i++ {
		nbrs, ws := g.NeighborWeights(i)
		if len(nbrs) != len(g.Neighbors(i)) {
			t.Fatalf("node %d: %d cached neighbors, want %d", i, len(nbrs), len(g.Neighbors(i)))
		}
		for idx, nb := range nbrs {
			if want := g.Weight(i, nb); ws[idx] != want {
				t.Fatalf("cached weight %d->%d = %v, want %v", i, nb, ws[idx], want)
			}
		}
	}
}

func TestNeighborWeightsInvalidation(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, 10*time.Millisecond, 0, 0)
	_, ws := g.NeighborWeights(0)
	before := ws[0]

	// Link update must invalidate the cached row.
	g.SetLink(0, 1, 40*time.Millisecond, 0, 0)
	_, ws = g.NeighborWeights(0)
	if ws[0] == before || ws[0] != g.Weight(0, 1) {
		t.Fatalf("row not rebuilt after SetLink: %v (want %v)", ws[0], g.Weight(0, 1))
	}

	// Node-utilization change affects other nodes' rows too (u is the max
	// of link and endpoint utilizations).
	before = ws[0]
	g.SetNodeUtil(1, 0.95)
	_, ws = g.NeighborWeights(0)
	if ws[0] <= before {
		t.Fatalf("endpoint util=0.95 should raise 0->1 weight: %v vs %v", ws[0], before)
	}
	if ws[0] != g.Weight(0, 1) {
		t.Fatalf("cache disagrees with Weight after SetNodeUtil")
	}
}

// checkRows asserts every cached forward and reverse weight equals
// Weight(from, to) bit for bit, and that the rows cover every edge.
func checkRows(t *testing.T, g *Graph, step int) {
	t.Helper()
	out, in := 0, 0
	for id := 0; id < g.N; id++ {
		nbrs, ws := g.NeighborWeights(id)
		for i, nb := range nbrs {
			if want := g.Weight(id, nb); math.Float64bits(ws[i]) != math.Float64bits(want) {
				t.Fatalf("step %d: forward %d->%d = %v, want %v", step, id, nb, ws[i], want)
			}
		}
		rnbrs, rws := g.InNeighborWeights(id)
		for i, nb := range rnbrs {
			if want := g.Weight(nb, id); math.Float64bits(rws[i]) != math.Float64bits(want) {
				t.Fatalf("step %d: reverse %d->%d = %v, want %v", step, nb, id, rws[i], want)
			}
		}
		out += len(nbrs)
		in += len(rnbrs)
	}
	if out != g.Edges() || in != g.Edges() {
		t.Fatalf("step %d: rows cover %d out / %d in edges, want %d", step, out, in, g.Edges())
	}
}

// TestWeightRowsMatchWeightUnderMutation drives a random mix of link
// inserts (some still pending when later mutations land on them), link
// and node updates, failures and clones, and checks after every step
// that the patched weight rows equal a from-scratch Eq. 2 evaluation.
func TestWeightRowsMatchWeightUnderMutation(t *testing.T) {
	const n = 12
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewSource(seed).Stream("rows")
		g := New(n)
		pair := func() (int, int) { return rng.Intn(n), rng.Intn(n) }
		for step := 0; step < 300; step++ {
			// 1-3 mutations per step, so some land before the next
			// compaction and hit pending slots.
			for ops := 1 + rng.Intn(3); ops > 0; ops-- {
				switch rng.Intn(7) {
				case 0, 1: // insert or update
					a, b := pair()
					g.SetLink(a, b, time.Duration(1+rng.Intn(200))*time.Millisecond,
						rng.Float64()*0.05, rng.Float64())
				case 2:
					a, b := pair()
					g.SetLinkDown(a, b, rng.Bernoulli(0.5))
				case 3, 4:
					g.SetNodeUtil(rng.Intn(n), rng.Float64())
				case 5:
					g.SetNodeDown(rng.Intn(n), rng.Bernoulli(0.3))
				case 6:
					if rng.Bernoulli(0.3) {
						old := g
						g = g.Clone()
						// Mutating the clone must leave the original's rows intact.
						g.SetNodeUtil(rng.Intn(n), rng.Float64())
						checkRows(t, old, step)
					}
				}
			}
			checkRows(t, g, step)
		}
	}
}
