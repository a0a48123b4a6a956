// Package graph implements the §5 connectivity analysis of the
// entity–website bipartite graph: connected components and their sizes
// (via union-find), exact graph diameter (via the iFUB algorithm started
// from a 4-sweep center, see diameter.go), and the robustness of the
// largest component when the top-k sites are removed (Figure 9). The
// robustness curve takes one union-find pass per graph: it removes the
// top sites, then adds them back one at a time, largest last, while
// tracking the largest component's entity count.
package graph

import (
	"fmt"
	"math"

	"repro/internal/index"
)

// Bipartite is the entity–website graph for one (domain, attribute):
// nodes 0..NumEntities-1 are entities, NumEntities..NumEntities+S-1 are
// sites, site node NumEntities+r being the site of rank r (0 = largest);
// an edge joins entity e and site s when s mentions e.
type Bipartite struct {
	NumEntities int
	NumSites    int
	// adj is the adjacency over all nodes (entities then sites).
	// Entities with no edges have empty rows and are excluded from the
	// analysis denominators.
	adj   csr
	hosts []string
}

// csr is a compressed-sparse-row adjacency: node v's neighbours are
// nbr[off[v]:off[v+1]].
type csr struct {
	off []int32
	nbr []int32
}

// row returns the neighbours of v.
func (a csr) row(v int) []int32 { return a.nbr[a.off[v]:a.off[v+1]] }

// FromIndex builds the bipartite graph of an index. Site ordering
// follows the index's size-descending order. The entity node space is
// sized by the largest entity ID present (the index's NumEntities is a
// coverage denominator and may be smaller, e.g. for the homepage
// attribute whose universe is entities-with-homepage). The adjacency is
// built in two passes over the postings: one counts degrees, one fills
// rows.
func FromIndex(idx *index.Index) (*Bipartite, error) {
	if idx.NumEntities <= 0 {
		return nil, fmt.Errorf("graph: index has no entity universe")
	}
	numEntities := idx.NumEntities
	postings := idx.TotalPostings()
	for si := range idx.Sites {
		for _, e := range idx.Sites[si].Entities {
			if e < 0 {
				return nil, fmt.Errorf("graph: negative entity id %d", e)
			}
			if e >= numEntities {
				numEntities = e + 1
			}
		}
	}
	n := numEntities + len(idx.Sites)
	if n >= math.MaxInt32 || 2*postings >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes and %d edges overflow int32 ids", n, postings)
	}
	g := &Bipartite{
		NumEntities: numEntities,
		NumSites:    len(idx.Sites),
		adj:         csr{off: make([]int32, n+1), nbr: make([]int32, 2*postings)},
		hosts:       make([]string, len(idx.Sites)),
	}
	// off[v+1] counts v's degree; the prefix sum turns off[v] into the
	// start of v's row.
	off := g.adj.off
	for si := range idx.Sites {
		off[numEntities+si+1] = int32(len(idx.Sites[si].Entities))
		for _, e := range idx.Sites[si].Entities {
			off[e+1]++
		}
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	// Fill by site rank, so each entity's row lists its sites in rank
	// order. off[v] serves as v's write cursor and ends at the start of
	// v+1's row; shifting it back restores the starts.
	for si := range idx.Sites {
		node := int32(numEntities + si)
		g.hosts[si] = idx.Sites[si].Host
		for _, e := range idx.Sites[si].Entities {
			g.adj.nbr[off[node]] = int32(e)
			off[node]++
			g.adj.nbr[off[e]] = node
			off[e]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return g, nil
}

// Host returns the host name of site rank r (0 = largest site).
func (g *Bipartite) Host(r int) string { return g.hosts[r] }

// NumNodes returns the total node count (entities + sites).
func (g *Bipartite) NumNodes() int { return len(g.adj.off) - 1 }

// Degree returns the degree of node v.
func (g *Bipartite) Degree(v int) int { return int(g.adj.off[v+1] - g.adj.off[v]) }

// AvgSitesPerEntity returns the mean entity degree over entities with
// at least one edge (Table 2 column 1).
func (g *Bipartite) AvgSitesPerEntity() float64 {
	total, n := 0, 0
	for e := 0; e < g.NumEntities; e++ {
		if d := g.Degree(e); d > 0 {
			total += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// Components summarizes the connected-component structure.
type Components struct {
	// Count is the number of components containing at least one entity.
	Count int
	// LargestEntities is the number of entities in the largest
	// component (largest by entity count).
	LargestEntities int
	// TotalEntities is the number of entities with at least one edge.
	TotalEntities int
	// LargestID is the union-find root of the largest component.
	LargestID int
	roots     []int32
}

// FracEntitiesInLargest is Table 2's "% entities in largest comp"
// (as a fraction of connected entities).
func (c Components) FracEntitiesInLargest() float64 {
	if c.TotalEntities == 0 {
		return 0
	}
	return float64(c.LargestEntities) / float64(c.TotalEntities)
}

// InLargest reports whether node v is in the largest component.
func (c Components) InLargest(v int) bool {
	return c.roots != nil && int(c.roots[v]) == c.LargestID
}

// ComponentsExcluding computes connected components with the given site
// ranks removed (nil removes nothing). Removal of rank r removes the
// r-th largest site and all its edges.
func (g *Bipartite) ComponentsExcluding(removedRanks []int) Components {
	n := g.NumNodes()
	removed := make([]bool, n)
	for _, r := range removedRanks {
		if r >= 0 && r < g.NumSites {
			removed[g.NumEntities+r] = true
		}
	}
	uf := newUnionFind(n)
	for v := range n {
		if removed[v] {
			continue
		}
		for _, u := range g.adj.row(v) {
			if !removed[u] {
				uf.union(v, int(u))
			}
		}
	}
	// Tally entities per root.
	perRoot := make([]int32, n)
	total := 0
	roots := make([]int32, n)
	for v := range n {
		roots[v] = int32(uf.find(v))
	}
	for e := 0; e < g.NumEntities; e++ {
		connected := false
		for _, s := range g.adj.row(e) {
			if !removed[s] {
				connected = true
				break
			}
		}
		if !connected {
			continue
		}
		total++
		perRoot[roots[e]]++
	}
	out := Components{TotalEntities: total, roots: roots, LargestID: -1}
	// Ascending roots with a strict > keep the lowest root among equal
	// counts.
	for root, n := range perRoot {
		if n == 0 {
			continue
		}
		out.Count++
		if int(n) > out.LargestEntities {
			out.LargestEntities = int(n)
			out.LargestID = root
		}
	}
	return out
}

// AllComponents computes the component structure of the full graph.
func (g *Bipartite) AllComponents() Components {
	return g.ComponentsExcluding(nil)
}

// RobustnessCurve returns, for k = 0..maxK, the fraction of connected
// entities that remain in the largest component after removing the top
// k sites (Figure 9). The denominator is the entity count still
// connected after removal, matching the paper's "fraction of structured
// entities in the largest component".
//
// Point k equals ComponentsExcluding(ranks 0..k-1).FracEntitiesInLargest,
// but the curve is built in one union-find pass: remove the top
// min(maxK, NumSites) sites and union the rest, then add the removed
// sites back from the smallest to the largest. Adding a site only merges
// components, so the running maximum of the per-root entity counts is
// the largest component after every add.
func (g *Bipartite) RobustnessCurve(maxK int) []float64 {
	if maxK < 0 {
		return []float64{}
	}
	out := make([]float64, maxK+1)
	top := min(maxK, g.NumSites)
	// live marks the entities connected to a site that is not removed.
	uf := newUnionFind(g.NumNodes())
	live := make([]bool, g.NumEntities)
	for s := g.NumEntities + top; s < g.NumNodes(); s++ {
		for _, e := range g.adj.row(s) {
			uf.union(s, int(e))
			live[e] = true
		}
	}
	// entities[root] counts the live entities of root's component.
	entities := make([]int32, g.NumNodes())
	total, largest := 0, 0
	for e, ok := range live {
		if ok {
			total++
			r := uf.find(e)
			entities[r]++
			largest = max(largest, int(entities[r]))
		}
	}
	frac := func() float64 {
		return Components{LargestEntities: largest, TotalEntities: total}.FracEntitiesInLargest()
	}
	// Removing ranks beyond the last site removes nothing more.
	for k := top; k <= maxK; k++ {
		out[k] = frac()
	}
	for k := top - 1; k >= 0; k-- {
		s := g.NumEntities + k
		for _, e := range g.adj.row(s) {
			if !live[e] {
				// Only a live site joins an entity to anything, so a
				// newly connected entity is still its own singleton.
				live[e] = true
				total++
				entities[e] = 1
			}
			rs, re := uf.find(s), uf.find(int(e))
			if rs != re {
				n := entities[rs] + entities[re]
				entities[uf.union(rs, re)] = n
				largest = max(largest, int(n))
			}
		}
		out[k] = frac()
	}
	return out
}

// unionFind is a weighted quick-union with path halving.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(v int) int {
	for int(uf.parent[v]) != v {
		uf.parent[v] = uf.parent[uf.parent[v]] // path halving
		v = int(uf.parent[v])
	}
	return v
}

// union merges the sets of a and b and returns the merged root.
func (uf *unionFind) union(a, b int) int {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return ra
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	uf.size[ra] += uf.size[rb]
	return ra
}

// Metrics bundles the Table 2 row for one (domain, attribute) graph.
type Metrics struct {
	AvgSitesPerEntity float64
	Diameter          int
	Components        int
	FracLargest       float64
}

// ComputeMetrics produces the Table 2 row: average sites per entity,
// exact diameter of the largest component, component count, and the
// fraction of entities in the largest component.
func (g *Bipartite) ComputeMetrics() Metrics {
	c := g.AllComponents()
	return Metrics{
		AvgSitesPerEntity: g.AvgSitesPerEntity(),
		Diameter:          g.DiameterLargest(c),
		Components:        c.Count,
		FracLargest:       c.FracEntitiesInLargest(),
	}
}
