package demand

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/logs"
)

// HLL is a HyperLogLog distinct-count sketch, the test-only ablation
// alternative to exact per-entity cookie sets (BenchmarkAblationCookies
// below). At web scale the exact sets the paper could afford on a grid
// do not fit in one process; HLL trades ~2% relative error for constant
// space.
type HLL struct {
	p    uint8 // precision: m = 2^p registers
	regs []uint8
}

// NewHLL returns a sketch with 2^p registers; p must be in [4, 16].
func NewHLL(p uint8) (*HLL, error) {
	if p < 4 || p > 16 {
		return nil, fmt.Errorf("demand: HLL precision %d outside [4,16]", p)
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}, nil
}

// Add inserts a 64-bit item (already well-mixed IDs should still be
// hashed; Add applies a 64-bit finalizer).
func (h *HLL) Add(x uint64) {
	x = mix64(x)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(uint(h.p)-1) // guarantee a terminator bit
	rho := uint8(bits.LeadingZeros64(rest)) + 1
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// alphaInf is the asymptotic HyperLogLog bias constant 1/(2 ln 2).
const alphaInf = 0.5 / math.Ln2

// Count estimates the number of distinct items added, using the
// estimator of Ertl (2017): the register histogram is folded through
// the σ (zero-register / small-range) and τ (saturated-register /
// large-range) corrections, giving full-range accuracy with no
// hard-coded bias thresholds. The previous raw-estimate + linear
// counting hybrid biased past 3% relative error in the transition
// region around 2.5m (caught by TestHLLRelativeErrorP14) and truncated
// instead of rounding; both corrections live here now.
func (h *HLL) Count() int {
	m := float64(len(h.regs))
	q := 64 - int(h.p) // register values range over [0, q+1]
	counts := make([]int, q+2)
	for _, r := range h.regs {
		counts[r]++
	}
	z := m * tau(1-float64(counts[q+1])/m)
	for k := q; k >= 1; k-- {
		z = 0.5 * (z + float64(counts[k]))
	}
	z += m * sigma(float64(counts[0])/m)
	return int(math.Round(alphaInf * m * m / z))
}

// sigma is Ertl's small-range correction series: sigma(x) = x +
// sum_k 2^(k-1) x^(2^k), the expected contribution of zero registers.
// sigma(1) diverges — an empty sketch estimates zero.
func sigma(x float64) float64 {
	if x == 1 {
		return math.Inf(1)
	}
	y, z := 1.0, x
	for {
		x *= x
		prev := z
		z += x * y
		y += y
		if z == prev {
			return z
		}
	}
}

// tau is Ertl's large-range correction series for saturated registers.
func tau(x float64) float64 {
	if x == 0 || x == 1 {
		return 0
	}
	y, z := 1.0, 1-x
	for {
		x = math.Sqrt(x)
		prev := z
		y *= 0.5
		z -= (1 - x) * (1 - x) * y
		if z == prev {
			return z / 3
		}
	}
}

// Merge folds other into h; both must share the precision.
func (h *HLL) Merge(other *HLL) error {
	if h.p != other.p {
		return fmt.Errorf("demand: merging HLL p=%d into p=%d", other.p, h.p)
	}
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// SketchAggregator mirrors Aggregator but counts unique cookies with
// HyperLogLog sketches instead of exact sets. Like Aggregator, state
// is struct-of-arrays: a dense visit column and a parallel
// register-set column per source, indexed by entity and by the same
// ClickRef.Src codes (replacing the former map[logs.Source] lookups on
// the fold path). Sketches are allocated lazily: most tail entities
// see a handful of clicks.
type SketchAggregator struct {
	byKey     map[string]int
	site      logs.Site
	precision uint8
	sketches  [numSources][]*HLL
	visits    [numSources][]int
}

// NewSketchAggregator returns a sketch-based aggregator with the given
// HLL precision.
func NewSketchAggregator(cat *Catalog, precision uint8) (*SketchAggregator, error) {
	if precision < 4 || precision > 16 {
		return nil, fmt.Errorf("demand: precision %d outside [4,16]", precision)
	}
	sa := &SketchAggregator{
		byKey:     cat.ByKey(),
		site:      cat.Site,
		precision: precision,
	}
	for i := range sa.sketches {
		sa.sketches[i] = make([]*HLL, len(cat.Entities))
		sa.visits[i] = make([]int, len(cat.Entities))
	}
	return sa, nil
}

// Add folds one click into the sketches.
func (sa *SketchAggregator) Add(c logs.Click) {
	site, key, ok := logs.ParseEntityURL(c.URL)
	if !ok || site != sa.site {
		return
	}
	id, ok := sa.byKey[key]
	if !ok {
		return
	}
	si := srcIdx(c.Source)
	if si < 0 {
		return
	}
	sa.AddRef(ClickRef{Cookie: c.Cookie, Entity: int32(id), Day: int16(c.Day), Src: uint8(si)})
}

// AddRef folds one click in the internal representation, mirroring
// Aggregator.AddRef for the sketched alternative.
func (sa *SketchAggregator) AddRef(r ClickRef) {
	if int(r.Src) >= numSources {
		return
	}
	sketches := sa.sketches[r.Src]
	if r.Entity < 0 || int(r.Entity) >= len(sketches) {
		return
	}
	if sketches[r.Entity] == nil {
		h, err := NewHLL(sa.precision)
		if err != nil {
			return // precision validated at construction; unreachable
		}
		sketches[r.Entity] = h
	}
	sketches[r.Entity].Add(r.Cookie)
	sa.visits[r.Src][r.Entity]++
}

// Demand returns per-entity estimates from the sketches.
func (sa *SketchAggregator) Demand(source logs.Source) []Estimate {
	si := srcIdx(source)
	if si < 0 {
		return []Estimate{}
	}
	sketches := sa.sketches[si]
	out := make([]Estimate, len(sketches))
	for i, h := range sketches {
		out[i].Visits = sa.visits[si][i]
		if h != nil {
			out[i].UniqueCookies = h.Count()
		}
	}
	return out
}

// BenchmarkAblationCookies folds one simulated yelp click stream with
// exact distinct-cookie sets (Aggregator) and with HyperLogLog sketches
// (SketchAggregator).
func BenchmarkAblationCookies(b *testing.B) {
	cat, err := GenerateCatalog(SiteDefaults(logs.Yelp, 8000, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Events: 50000, Cookies: 20000, Seed: 5}
	run := func(b *testing.B, newAgg func() func(logs.Click)) {
		for i := 0; i < b.N; i++ {
			add := newAgg()
			if err := Simulate(cat, cfg, func(c logs.Click) error {
				add(c)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exact", func(b *testing.B) {
		run(b, func() func(logs.Click) { return NewAggregator(cat).Add })
	})
	b.Run("sketch", func(b *testing.B) {
		run(b, func() func(logs.Click) {
			sa, err := NewSketchAggregator(cat, 12)
			if err != nil {
				b.Fatal(err)
			}
			return sa.Add
		})
	})
}
