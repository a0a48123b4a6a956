package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/entity"
	"repro/internal/index"
	"repro/internal/synth"
)

// Test-only diameter oracles: the paper's method (§5.2), a BFS from
// every node of the largest component, serially and fanned across
// workers. iFUB (DiameterLargest) must agree with both.

// diameterBrute computes the diameter of the largest component by
// running a BFS from every node in it.
func diameterBrute(g *Bipartite, c Components) int {
	s := newSweeper(g.adj)
	max := 0
	for v := range g.NumNodes() {
		if g.Degree(v) == 0 || !c.InLargest(v) {
			continue
		}
		ecc, touched := s.sweep(v)
		if ecc > max {
			max = ecc
		}
		s.reset(touched)
	}
	return max
}

// diameterParallel is diameterBrute with the per-source BFS sweeps
// fanned across workers goroutines (<= 0 means GOMAXPROCS), the way
// the paper ran it ("we start breadth first traversals from each node
// in parallel").
func diameterParallel(g *Bipartite, c Components, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var sources []int32
	for v := range g.NumNodes() {
		if g.Degree(v) > 0 && c.InLargest(v) {
			sources = append(sources, int32(v))
		}
	}
	if len(sources) == 0 {
		return 0
	}
	if workers > len(sources) {
		workers = len(sources)
	}

	// Lock-free work stealing: the shared cursor is a single atomic,
	// and each worker keeps a private maximum merged at join.
	var (
		wg     sync.WaitGroup
		next   atomic.Int64 // shared cursor into sources
		maxima = make([]int, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newSweeper(g.adj)
			localMax := 0
			for {
				i := next.Add(1) - 1
				if int(i) >= len(sources) {
					break
				}
				ecc, touched := s.sweep(int(sources[i]))
				if ecc > localMax {
					localMax = ecc
				}
				s.reset(touched)
			}
			maxima[w] = localMax
		}(w)
	}
	wg.Wait()
	max := 0
	for _, m := range maxima {
		if m > max {
			max = m
		}
	}
	return max
}

func TestDiameterParallelMatchesBrute(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := dist.NewRNG(seed)
		b := index.NewBuilder(entity.Banks, entity.AttrPhone, 120)
		for s := 0; s < 40; s++ {
			host := hostN(s)
			for j := 0; j < 1+rng.Intn(6); j++ {
				b.Add(host, rng.Intn(120))
			}
		}
		g, err := FromIndex(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		c := g.AllComponents()
		brute := diameterBrute(g, c)
		for _, workers := range []int{0, 1, 3, 8} {
			if got := diameterParallel(g, c, workers); got != brute {
				t.Errorf("seed %d workers %d: parallel %d != brute %d", seed, workers, got, brute)
			}
		}
	}
}

func TestDiameterParallelEmpty(t *testing.T) {
	g, err := FromIndex(&index.Index{NumEntities: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := diameterParallel(g, g.AllComponents(), 4); d != 0 {
		t.Errorf("empty graph parallel diameter = %d", d)
	}
}

func TestDiameterParallelAgreesWithIFUB(t *testing.T) {
	rng := dist.NewRNG(99)
	b := index.NewBuilder(entity.Banks, entity.AttrPhone, 400)
	for s := 0; s < 150; s++ {
		host := hostN(s)
		for j := 0; j < 1+rng.Intn(8); j++ {
			b.Add(host, rng.Intn(400))
		}
	}
	g, err := FromIndex(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	c := g.AllComponents()
	if p, f := diameterParallel(g, c, 4), g.DiameterLargest(c); p != f {
		t.Errorf("parallel %d != iFUB %d", p, f)
	}
}

// BenchmarkAblationDiameter{IFUB,Brute,Parallel}: iFUB's exact diameter
// against the paper's all-sources BFS, serial and parallel.
func ablationGraph(b *testing.B) (*Bipartite, Components) {
	b.Helper()
	// A dedicated small web keeps the brute-force baseline (quadratic in
	// nodes times edges) tractable; the speedup ratio is what matters.
	web, err := synth.Generate(synth.Config{
		Domain: entity.Banks, Entities: 800, DirectoryHosts: 1200, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromIndex(web.DirectIndexes()[entity.AttrPhone])
	if err != nil {
		b.Fatal(err)
	}
	return g, g.AllComponents()
}

func benchmarkDiameter(b *testing.B, diameter func(*Bipartite, Components) int) {
	g, c := ablationGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := diameter(g, c); d == 0 {
			b.Fatal("zero diameter")
		}
	}
}

func BenchmarkAblationDiameterIFUB(b *testing.B) {
	benchmarkDiameter(b, (*Bipartite).DiameterLargest)
}

func BenchmarkAblationDiameterBrute(b *testing.B) {
	benchmarkDiameter(b, diameterBrute)
}

func BenchmarkAblationDiameterParallel(b *testing.B) {
	benchmarkDiameter(b, func(g *Bipartite, c Components) int { return diameterParallel(g, c, 0) })
}
