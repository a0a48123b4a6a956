package graph

// Diameter computation. The paper computes exact diameters by running a
// BFS from every node (§5.2); that is cubic-ish and fine on a grid but
// not on a laptop. We implement iFUB (iterative Fringe Upper Bound,
// Crescenzi, Grossi, Habib, Lanzi and Marino, "On computing the diameter
// of real-world undirected graphs", TCS 2013), which computes the EXACT
// diameter. iFUB levels the component from a start node u and then runs
// a BFS from every node of the deepest fringe levels until the lower
// bound reaches twice the current level, so its cost is the size of the
// fringes it must visit. Starting from the highest-degree node is not
// enough: on the diameter-8 phone graphs that node is off-center and
// iFUB visits a whole large fringe level. The start is therefore picked
// by the same paper's 4-sweep heuristic (four BFSes that land near the
// center), which also seeds the lower bound. The brute-force all-pairs
// oracle lives in the tests.

// bfs runs a breadth-first traversal from src, writing distances into
// dist (one entry per node, pre-filled with -1). It returns the
// eccentricity of src within its component and the visited nodes in
// BFS order, so the last visited node is one farthest from src.
func bfs(adj csr, src int, dist []int32, queue []int32) (ecc int, visited []int32) {
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, int32(src))
	head := 0
	for head < len(queue) {
		v := queue[head]
		head++
		dv := dist[v]
		if int(dv) > ecc {
			ecc = int(dv)
		}
		for _, u := range adj.row(int(v)) {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return ecc, queue
}

// DiameterLargest returns the exact diameter of the largest connected
// component (0 for an empty or single-node component). The Components
// argument must come from AllComponents on the same graph.
func (g *Bipartite) DiameterLargest(c Components) int {
	r1 := g.maxDegreeNode(c)
	if r1 < 0 {
		return 0
	}
	return g.ifub(r1)
}

// maxDegreeNode returns the highest-degree node of the largest
// component, the lowest id among equal degrees, or -1 if the component
// has no edges.
func (g *Bipartite) maxDegreeNode(c Components) int {
	best := -1
	for v := range g.NumNodes() {
		if g.Degree(v) > 0 && c.InLargest(v) && (best < 0 || g.Degree(v) > g.Degree(best)) {
			best = v
		}
	}
	return best
}

// sweeper holds the BFS scratch of one diameter computation. dist is
// all -1 between sweeps: each caller resets the nodes a sweep visited.
type sweeper struct {
	adj   csr
	dist  []int32
	queue []int32
}

func newSweeper(adj csr) *sweeper {
	n := len(adj.off) - 1
	s := &sweeper{adj: adj, dist: make([]int32, n), queue: make([]int32, 0, n)}
	for i := range s.dist {
		s.dist[i] = -1
	}
	return s
}

func (s *sweeper) sweep(src int) (ecc int, visited []int32) {
	return bfs(s.adj, src, s.dist, s.queue)
}

func (s *sweeper) reset(visited []int32) {
	for _, v := range visited {
		s.dist[v] = -1
	}
}

// walkBack returns the node at distance d from the last sweep's source
// on a shortest path to v, found by stepping from v to any neighbor one
// level closer. The last sweep's distances must still be in dist.
func (s *sweeper) walkBack(v, d int) int {
	for int(s.dist[v]) > d {
		for _, u := range s.adj.row(v) {
			if s.dist[u] == s.dist[v]-1 {
				v = int(u)
				break
			}
		}
	}
	return v
}

// fourSweep picks iFUB's start by the 4-sweep heuristic: from r1 sweep
// to a farthest node a1 and from a1 to a farthest node b1; r2 is the
// midpoint of that a1–b1 path. The double sweep repeats from r2, and the
// midpoint of the a2–b2 path is the start. It also returns the largest
// eccentricity the four sweeps saw, a lower bound on the diameter.
func (s *sweeper) fourSweep(r1 int) (start, lb int) {
	r := r1
	for range 2 {
		ecc, visited := s.sweep(r)
		lb = max(lb, ecc)
		a := int(visited[len(visited)-1])
		s.reset(visited)

		ecc, visited = s.sweep(a)
		lb = max(lb, ecc)
		r = s.walkBack(int(visited[len(visited)-1]), ecc/2)
		s.reset(visited)
	}
	return r, lb
}

// ifub runs the iFUB algorithm from the 4-sweep start reached from r1
// and returns the exact diameter of r1's component.
func (g *Bipartite) ifub(r1 int) int {
	s := newSweeper(g.adj)
	start, lb := s.fourSweep(r1)

	// Level the component from start.
	eccStart, touched := s.sweep(start)
	// Bucket nodes by BFS level.
	levels := make([][]int32, eccStart+1)
	for _, v := range touched {
		levels[s.dist[v]] = append(levels[s.dist[v]], v)
	}
	s.reset(touched)

	lb = max(lb, eccStart)
	// Process fringes from the deepest level inward. Invariant: any node
	// at level i has eccentricity at most 2i (via start), so once
	// 2*(i) <= lb the current lb is the exact diameter.
	for i := eccStart; i > 0; i-- {
		if 2*i <= lb {
			return lb
		}
		for _, v := range levels[i] {
			ecc, touched := s.sweep(int(v))
			lb = max(lb, ecc)
			s.reset(touched)
			if 2*i <= lb {
				// Upper bound for all remaining nodes (levels <= i) is
				// 2i; lb has met it.
				return lb
			}
		}
	}
	return lb
}

// Eccentricity returns the BFS eccentricity of node v within its
// component, or -1 if v has no edges.
func (g *Bipartite) Eccentricity(v int) int {
	if v < 0 || v >= g.NumNodes() || g.Degree(v) == 0 {
		return -1
	}
	ecc, _ := newSweeper(g.adj).sweep(v)
	return ecc
}
