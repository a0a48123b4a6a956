package graph

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
)

func TestDiameterPath(t *testing.T) {
	// Chain: e0 - s0 - e1 - s1 - e2 - s2 - e3 → diameter 6.
	idx := mkIndex(t, map[string][]int{
		"s0": {0, 1}, "s1": {1, 2}, "s2": {2, 3},
	}, 4)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 6 {
		t.Errorf("path diameter = %d, want 6", d)
	}
	if d := diameterBrute(g, c); d != 6 {
		t.Errorf("brute diameter = %d, want 6", d)
	}
}

func TestDiameterStar(t *testing.T) {
	// One site covering everything: any entity to any entity is 2 hops.
	idx := mkIndex(t, map[string][]int{"hub": {0, 1, 2, 3, 4}}, 5)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
}

func TestDiameterSingleEdge(t *testing.T) {
	idx := mkIndex(t, map[string][]int{"s": {0}}, 1)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 1 {
		t.Errorf("single edge diameter = %d, want 1", d)
	}
}

func TestDiameterEmptyGraph(t *testing.T) {
	idx := &index.Index{NumEntities: 3}
	g, err := FromIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	c := g.AllComponents()
	if d := g.DiameterLargest(c); d != 0 {
		t.Errorf("empty diameter = %d, want 0", d)
	}
}

func TestIFUBMatchesBruteRandom(t *testing.T) {
	// iFUB must equal brute force on assorted random bipartite graphs,
	// including sparse ones with long chains.
	for seed := uint64(1); seed <= 12; seed++ {
		rng := dist.NewRNG(seed)
		nEnt := 30 + rng.Intn(60)
		nSites := 10 + rng.Intn(30)
		b := index.NewBuilder(entity.Banks, entity.AttrPhone, nEnt)
		for s := 0; s < nSites; s++ {
			host := hostN(s)
			size := 1 + rng.Intn(5)
			for j := 0; j < size; j++ {
				b.Add(host, rng.Intn(nEnt))
			}
		}
		g, err := FromIndex(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		c := g.AllComponents()
		fast := g.DiameterLargest(c)
		brute := diameterBrute(g, c)
		if fast != brute {
			t.Errorf("seed %d: iFUB %d != brute %d", seed, fast, brute)
		}
	}
}

func TestIFUBMatchesBruteDenser(t *testing.T) {
	rng := dist.NewRNG(77)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, 200)
	for s := 0; s < 80; s++ {
		host := hostN(s)
		for j := 0; j < 2+rng.Intn(20); j++ {
			b.Add(host, rng.Intn(200))
		}
	}
	g, _ := FromIndex(b.Build())
	c := g.AllComponents()
	if fast, brute := g.DiameterLargest(c), diameterBrute(g, c); fast != brute {
		t.Errorf("iFUB %d != brute %d", fast, brute)
	}
}

func TestEccentricity(t *testing.T) {
	idx := mkIndex(t, map[string][]int{
		"s0": {0, 1}, "s1": {1, 2},
	}, 3)
	g, _ := FromIndex(idx)
	// e0 ecc: e0-s0-e1-s1-e2 = 4.
	if ecc := g.Eccentricity(0); ecc != 4 {
		t.Errorf("ecc(e0) = %d, want 4", ecc)
	}
	// e1 is the center: ecc 2.
	if ecc := g.Eccentricity(1); ecc != 2 {
		t.Errorf("ecc(e1) = %d, want 2", ecc)
	}
	if ecc := g.Eccentricity(-1); ecc != -1 {
		t.Errorf("ecc(-1) = %d", ecc)
	}
}

func TestDiameterEvenForBipartiteEntityPairs(t *testing.T) {
	// In a bipartite entity-site graph every entity-entity distance is
	// even; the diameter endpoints may be entity-site (odd). Sanity-check
	// iFUB on a two-hub graph: hubs share one entity.
	idx := mkIndex(t, map[string][]int{
		"hub1": {0, 1, 2},
		"hub2": {2, 3, 4},
	}, 5)
	g, _ := FromIndex(idx)
	c := g.AllComponents()
	// e0 -> hub1 -> e2 -> hub2 -> e3: 4.
	if d := g.DiameterLargest(c); d != 4 {
		t.Errorf("two-hub diameter = %d, want 4", d)
	}
}

// chainPostings adds sites chain0..chain{n-1} to postings, site i
// holding entities i and i+1: a path of 2n edges from entity 0 to
// entity n.
func chainPostings(postings map[string][]int, n int) {
	for i := 0; i < n; i++ {
		postings[fmt.Sprintf("chain%03d", i)] = []int{i, i + 1}
	}
}

// hubPostings adds site host holding entity at plus m leaf entities
// numbered from leaf.
func hubPostings(postings map[string][]int, host string, at, leaf, m int) {
	ids := []int{at}
	for j := 0; j < m; j++ {
		ids = append(ids, leaf+j)
	}
	postings[host] = ids
}

// TestDiameterAdversarialStarts checks iFUB on graphs built so that the
// highest-degree node is far from the center: the 4-sweep start and the
// fringe loop must still give the exact diameter, equal to the brute
// oracle and to the diameter the construction implies.
func TestDiameterAdversarialStarts(t *testing.T) {
	type adversarial struct {
		name     string
		postings map[string][]int
		want     int
	}
	var cases []adversarial
	for _, n := range []int{3, 8, 17} {
		// A 40-leaf star hub hung off entity 0, the far end of an
		// n-site path: leaf – hub – e0 – … – e_n.
		p := map[string][]int{}
		chainPostings(p, n)
		hubPostings(p, "hub", 0, n+1, 40)
		cases = append(cases, adversarial{fmt.Sprintf("star-off-path/%d", n), p, 2 + 2*n})

		// Two 30-leaf hubs joined by an n-site chain.
		p = map[string][]int{}
		chainPostings(p, n)
		hubPostings(p, "hubA", 0, n+1, 30)
		hubPostings(p, "hubB", n, n+31, 30)
		cases = append(cases, adversarial{fmt.Sprintf("two-hubs/%d", n), p, 2*n + 4})
	}
	for _, tc := range cases {
		g, err := FromIndex(mkIndex(t, tc.postings, 1))
		if err != nil {
			t.Fatal(err)
		}
		c := g.AllComponents()
		if got, brute := g.DiameterLargest(c), diameterBrute(g, c); got != tc.want || brute != tc.want {
			t.Errorf("%s: iFUB %d, brute %d, want %d", tc.name, got, brute, tc.want)
		}
	}
}

// TestDiameterPathParity covers the 4-sweep midpoint walk on even and
// odd diameters: an n-site path ends on an entity (diameter 2n), and
// one more single-entity site at the end makes it end on a site
// (diameter 2n+1). On a tree the double sweep finds a diameter path,
// so the 4-sweep start is the center, with eccentricity ceil(D/2).
func TestDiameterPathParity(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for _, siteEnd := range []bool{false, true} {
			p := map[string][]int{}
			chainPostings(p, n)
			want := 2 * n
			if siteEnd {
				p["tail"] = []int{n}
				want++
			}
			g, err := FromIndex(mkIndex(t, p, n+1))
			if err != nil {
				t.Fatal(err)
			}
			c := g.AllComponents()
			if got, brute := g.DiameterLargest(c), diameterBrute(g, c); got != want || brute != want {
				t.Errorf("n=%d siteEnd=%t: iFUB %d, brute %d, want %d", n, siteEnd, got, brute, want)
			}
			start, lb := newSweeper(g.adj).fourSweep(g.maxDegreeNode(c))
			if lb != want {
				t.Errorf("n=%d siteEnd=%t: 4-sweep lower bound %d, want %d", n, siteEnd, lb, want)
			}
			if ecc := g.Eccentricity(start); ecc != (want+1)/2 {
				t.Errorf("n=%d siteEnd=%t: start %d has eccentricity %d, want %d", n, siteEnd, start, ecc, (want+1)/2)
			}
		}
	}
}

func TestMaxDegreeNodeLowestIDTieBreak(t *testing.T) {
	// Entities 1 and 2 both have degree 2, the most of any node.
	g, err := FromIndex(mkIndex(t, map[string][]int{"a": {0, 1}, "b": {1, 2}, "c": {2, 3}}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v := g.maxDegreeNode(g.AllComponents()); v != 1 {
		t.Errorf("maxDegreeNode = %d, want 1", v)
	}
	empty, err := FromIndex(&index.Index{NumEntities: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := empty.maxDegreeNode(empty.AllComponents()); v != -1 {
		t.Errorf("edgeless maxDegreeNode = %d, want -1", v)
	}
}
