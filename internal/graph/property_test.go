package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

func randomGraph(seed uint64) *Bipartite {
	rng := dist.NewRNG(seed)
	n := 20 + rng.Intn(100)
	sites := 5 + rng.Intn(35)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, n)
	for s := 0; s < sites; s++ {
		host := hostN(s)
		for j := 0; j < 1+rng.Intn(8); j++ {
			b.Add(host, rng.Intn(n))
		}
	}
	g, err := FromIndex(b.Build())
	if err != nil {
		panic(err)
	}
	return g
}

// TestPropertyRobustnessCurveInRange: every robustness value is a valid
// fraction and k=0 equals the full-graph largest share.
func TestPropertyRobustnessCurveInRange(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		curve := g.RobustnessCurve(5)
		if len(curve) != 6 {
			return false
		}
		full := g.AllComponents().FracEntitiesInLargest()
		if curve[0] != full {
			return false
		}
		for _, v := range curve {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRemovalShrinksConnectedSet: removing sites never grows
// the set of connected entities.
func TestPropertyRemovalShrinksConnectedSet(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		prev := g.ComponentsExcluding(nil).TotalEntities
		ranks := []int{}
		for k := 0; k < 5; k++ {
			ranks = append(ranks, k)
			cur := g.ComponentsExcluding(ranks).TotalEntities
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyComponentEntitiesSumToTotal: entity counts across
// components partition the connected entities.
func TestPropertyComponentEntitiesSumToTotal(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		c := g.AllComponents()
		// Largest component never exceeds the total.
		if c.LargestEntities > c.TotalEntities {
			return false
		}
		// Count components implies at least one entity each.
		return c.Count <= c.TotalEntities
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDiameterAtLeastAnyEccentricity: the diameter is the max
// eccentricity, so any sampled node's eccentricity bounds it below.
func TestPropertyDiameterAtLeastAnyEccentricity(t *testing.T) {
	f := func(seed uint64, probe uint8) bool {
		g := randomGraph(seed)
		c := g.AllComponents()
		d := g.DiameterLargest(c)
		v := int(probe) % g.NumNodes()
		if g.Degree(v) == 0 || !c.InLargest(v) {
			return true
		}
		return g.Eccentricity(v) <= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIFUBMatchesBrute: the 4-sweep-started iFUB equals the
// all-sources BFS oracle on random graphs, sparse chains included.
func TestPropertyIFUBMatchesBrute(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(seed)
		c := g.AllComponents()
		return g.DiameterLargest(c) == diameterBrute(g, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// robustnessOracle is Figure 9 by definition: one ComponentsExcluding
// per k, removing ranks 0..k-1.
func robustnessOracle(g *Bipartite, maxK int) []float64 {
	out := make([]float64, 0, maxK+1)
	ranks := make([]int, 0, maxK)
	for k := 0; k <= maxK; k++ {
		out = append(out, g.ComponentsExcluding(ranks).FracEntitiesInLargest())
		ranks = append(ranks, k)
	}
	return out
}

// TestPropertyRobustnessCurveMatchesOracle: the one-pass curve equals
// the per-k oracle with exact float equality, for maxK from 0 to past
// the site count (where every entity loses all its sites).
func TestPropertyRobustnessCurveMatchesOracle(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		g := randomGraph(seed)
		maxK := int(k) % (g.NumSites + 4)
		return slices.Equal(g.RobustnessCurve(maxK), robustnessOracle(g, maxK))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRobustnessCurveEdgeCases(t *testing.T) {
	// solo.com (rank 0) alone holds entities 0..5, so removing it
	// orphans them; past the two sites nothing is connected.
	g, err := FromIndex(mkIndex(t, map[string][]int{
		"solo.com": {0, 1, 2, 3, 4, 5},
		"pair.com": {6, 7},
	}, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, maxK := range []int{0, 1, 2, 5} {
		got, want := g.RobustnessCurve(maxK), robustnessOracle(g, maxK)
		if !slices.Equal(got, want) {
			t.Errorf("maxK=%d: curve %v, oracle %v", maxK, got, want)
		}
	}
	if got, want := g.RobustnessCurve(5), []float64{0.75, 1, 0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("curve = %v, want %v", got, want)
	}
	if got := g.RobustnessCurve(-1); len(got) != 0 {
		t.Errorf("RobustnessCurve(-1) = %v, want empty", got)
	}
}

// TestComponentsLargestIDTieBreak: among components with equal entity
// counts the largest is the one with the lowest union-find root.
func TestComponentsLargestIDTieBreak(t *testing.T) {
	g, err := FromIndex(mkIndex(t, map[string][]int{"a.com": {0, 1}, "b.com": {2, 3}}, 4))
	if err != nil {
		t.Fatal(err)
	}
	c := g.AllComponents()
	if want := int(min(c.roots[0], c.roots[2])); c.LargestID != want || c.LargestEntities != 2 {
		t.Errorf("LargestID = %d (%d entities), want root %d", c.LargestID, c.LargestEntities, want)
	}
}
