package demand

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/logs"
)

// sources lists the two traffic streams every simulation generates, in
// canonical order: the full click stream is the search stream followed
// by the browse stream.
var sources = []logs.Source{logs.Search, logs.Browse}

// defaultBrowseHeadBias is the browse-traffic demand tilt applied when
// SimConfig.BrowseHeadBias is nil.
const defaultBrowseHeadBias = 0.15

// SimConfig controls click-log simulation for one catalog.
type SimConfig struct {
	// Events is the number of clicks to generate per source.
	Events int
	// Cookies is the size of the user (cookie) population.
	Cookies int
	// Seed drives the simulation.
	Seed uint64
	// BrowseHeadBias is added to the demand exponent for browse traffic:
	// browse patterns are shaped by on-site promotion of popular items
	// (§4.1), so browse demand is more head-concentrated than search.
	// nil selects the default (0.15); use Bias to set an explicit value,
	// including zero (browse demand shaped exactly like search).
	BrowseHeadBias *float64
}

// Bias wraps an explicit browse-head-bias value for SimConfig, making
// an explicit zero distinguishable from "use the default".
func Bias(v float64) *float64 { return &v }

// withSimDefaults fills zero (or nil) fields.
func withSimDefaults(cfg SimConfig, n int) SimConfig {
	if cfg.Events == 0 {
		cfg.Events = 40 * n
	}
	if cfg.Cookies == 0 {
		cfg.Cookies = 8 * n
	}
	if cfg.BrowseHeadBias == nil {
		cfg.BrowseHeadBias = Bias(defaultBrowseHeadBias)
	}
	return cfg
}

// clickDraws is the exact number of RNG draws one click consumes: two
// for the alias sample, one for the cookie, one for the day. The
// generator keeps this budget fixed so event i of a source stream
// always begins at draw i*clickDraws — the leapfrog contract that lets
// dist.RNG.Jump position a worker at any event offset (see the
// internal/dist package documentation). Any change to the per-click
// draw count is caught by the golden stream test.
const clickDraws = 4

// sourceStreamID names each source's substream for dist.StreamSeed.
func sourceStreamID(s logs.Source) uint64 {
	if s == logs.Search {
		return 1
	}
	return 2
}

// sourceSampler is the immutable per-source sampling state: the alias
// table over (bias-tilted) latent demand plus the resolved config. It
// is safe for concurrent generate calls, each over its own event range
// with its own RNG.
type sourceSampler struct {
	cat    *Catalog
	cfg    SimConfig // defaults applied
	source logs.Source
	alias  *dist.Alias
}

func newSourceSampler(cat *Catalog, cfg SimConfig, source logs.Source) (*sourceSampler, error) {
	if len(cat.Entities) == 0 {
		return nil, fmt.Errorf("demand: empty catalog")
	}
	bias := 0.0
	if source == logs.Browse {
		bias = *cfg.BrowseHeadBias
	}
	alias, err := cat.demandAlias(source, bias)
	if err != nil {
		return nil, err
	}
	return &sourceSampler{cat: cat, cfg: cfg, source: source, alias: alias}, nil
}

// generateRefs emits events [lo, hi) of the source's click stream as
// ClickRefs — the zero-string hot path every consumer builds on. The
// stream is a pure function of (seed, source, event index): the RNG
// seeds from dist.StreamSeed(seed, source) and jumps to draw
// lo*clickDraws, and every event consumes exactly clickDraws draws, so
// any partition of the event index space concatenates to the unsplit
// stream. emit returning false stops generation early.
func (sp *sourceSampler) generateRefs(lo, hi int, emit func(ClickRef) bool) {
	rng := dist.NewRNG(dist.StreamSeed(sp.cfg.Seed, sourceStreamID(sp.source)))
	rng.Jump(uint64(lo) * clickDraws)
	src := uint8(srcIdx(sp.source))
	for ev := lo; ev < hi; ev++ {
		e := sp.alias.Sample(rng)                      // draws 1–2
		cookie := uint64(rng.Intn(sp.cfg.Cookies)) + 1 // draw 3
		day := rng.Intn(365)                           // draw 4
		if !emit(ClickRef{Cookie: cookie, Entity: int32(e), Day: int16(day), Src: src}) {
			return
		}
	}
}

// generate is generateRefs materialized to the wire representation,
// with the error-propagating emit contract the file/stream consumers
// expect. An emit error stops generation immediately.
func (sp *sourceSampler) generate(lo, hi int, emit func(logs.Click) error) error {
	var err error
	sp.generateRefs(lo, hi, func(r ClickRef) bool {
		if e := emit(r.Click(sp.cat)); e != nil {
			err = fmt.Errorf("demand: emit click: %w", e)
			return false
		}
		return true
	})
	return err
}

// Simulate generates the search and browse click streams for a catalog,
// invoking emit for every click. Clicks reference entity URLs; cookies
// are drawn from a finite population so unique-cookie counting
// saturates realistically for head entities. The emitted sequence is
// the canonical stream order: all search events by index, then all
// browse events. Simulate is the wire reference the golden stream hash
// pins; SimulateRefBatches emits the same stream as ClickRefs,
// GenerateOrdered and GenerateOrderedRefs reproduce it from parallel
// workers, and GeneratePipeline aggregates it fully in parallel.
func Simulate(cat *Catalog, cfg SimConfig, emit func(logs.Click) error) error {
	cfg = withSimDefaults(cfg, len(cat.Entities))
	for _, source := range sources {
		sp, err := newSourceSampler(cat, cfg, source)
		if err != nil {
			return err
		}
		if err := sp.generate(0, cfg.Events, emit); err != nil {
			return err
		}
	}
	return nil
}

// SimulateRefBatches is Simulate in the internal representation: the
// same streams in the same canonical order, emitted as ClickRefs with
// no URL strings built or parsed anywhere, delivered in reused batches
// of up to size refs (<= 0: DefaultFoldBatch). It is the serial face of
// the columnar fold: pair it with Aggregator.FoldBatch and the whole
// serial path runs generation and cache-blocked aggregation over one
// recycled buffer. Batches may span the search/browse boundary (the
// fold partitions by source anyway); fold must not retain the slice,
// which is overwritten by the next batch.
func SimulateRefBatches(cat *Catalog, cfg SimConfig, size int, fold func([]ClickRef)) error {
	if size <= 0 {
		size = DefaultFoldBatch
	}
	cfg = withSimDefaults(cfg, len(cat.Entities))
	buf := make([]ClickRef, 0, size)
	for _, source := range sources {
		sp, err := newSourceSampler(cat, cfg, source)
		if err != nil {
			return err
		}
		sp.generateRefs(0, cfg.Events, func(r ClickRef) bool {
			buf = append(buf, r)
			if len(buf) == size {
				fold(buf)
				buf = buf[:0]
			}
			return true
		})
	}
	if len(buf) > 0 {
		fold(buf)
	}
	return nil
}

// Estimate is the aggregated demand of one entity from one source.
type Estimate struct {
	// Visits is the raw click count.
	Visits int
	// UniqueCookies is the paper's demand measure: distinct cookies
	// visiting the entity (§4.1: search uses per-month uniques summed;
	// browse uses per-year uniques — both are distinct-count demands).
	UniqueCookies int
}

// Aggregator folds a click stream into per-entity demand estimates for
// one catalog, counting distinct cookies exactly. AddRef is the
// zero-string scalar fast path
// and FoldBatch (columnar.go) its cache-blocked batch sibling; Add
// accepts wire clicks (log replay), resolving canonical catalog URLs
// with one interned-string lookup and everything else through the
// general parser.
//
// Per-entity state is struct-of-arrays: one dense int32 visit-count
// column and one cookie-set column per source (sourceCols), not an
// array of per-entity structs. The visit column packs 16 entities per
// cache line where the old array-of-structs layout packed half an
// entity, so the pure-counting half of a fold touches ~32× fewer
// lines, and the fat cookie sets no longer ride along on every visit
// increment — the layout PIMDAL-style bandwidth analysis asks for.
type Aggregator struct {
	byKey map[string]int
	// byURL interns the catalog's canonical entity URLs, so folding
	// the simulator's own wire output costs one string-map hit instead
	// of a parse plus a key lookup. Replayed log files hit it too:
	// equality is by value, and canonical URLs dominate real replays.
	byURL   map[string]int
	site    logs.Site
	hint    uint64 // cookie-population bound; see SetCookieHint
	perSrc  [numSources]sourceCols
	moved   uint64 // modelled state bytes; see BytesMoved
	scratch foldScratch
	// arena backs the cookie columns' tables and bitmaps (see
	// wordArena): per-entity regime transitions carve slices from
	// shared chunks instead of allocating individually.
	arena wordArena
}

// sourceCols is one source's per-entity aggregation state in
// struct-of-arrays layout: parallel dense columns indexed by entity.
type sourceCols struct {
	// visits saturates at MaxInt32; see AddRef.
	visits []int32
	// cookies are the exact distinct-cookie sets; lazily graduated
	// (cookieSet zero value is an empty inline set), so tail entities
	// cost their column slot and nothing else.
	cookies []cookieSet
}

// NewAggregator returns an Aggregator for cat.
func NewAggregator(cat *Catalog) *Aggregator {
	return newAggregator(cat.ByKey(), cat.ByURL(), cat.Site, len(cat.Entities))
}

// newAggregator shares prebuilt URL/key lookups — ShardedAggregator
// builds them once for all shards.
func newAggregator(byKey, byURL map[string]int, site logs.Site, n int) *Aggregator {
	a := &Aggregator{byKey: byKey, byURL: byURL, site: site}
	for i := range a.perSrc {
		a.perSrc[i] = sourceCols{
			visits:  make([]int32, n),
			cookies: make([]cookieSet, n),
		}
	}
	return a
}

// AddRef folds one click in the internal representation: a direct
// index into the per-entity columns, no parsing, no hashing of
// strings. Refs with out-of-range fields are ignored like foreign
// clicks. For batched streams FoldBatch is the faster equivalent.
//
//repro:noalloc
func (a *Aggregator) AddRef(r ClickRef) {
	if int(r.Src) >= numSources {
		return
	}
	col := &a.perSrc[r.Src]
	if r.Entity < 0 || int(r.Entity) >= len(col.visits) {
		return
	}
	if v := col.visits[r.Entity]; v != math.MaxInt32 {
		// Saturate rather than wrap: a single entity-source pair past
		// 2^31 visits only happens in adversarial replays, and a
		// pinned ceiling beats a negative count.
		col.visits[r.Entity] = v + 1
	}
	a.moved += refMoveBytes + visitMoveBytes + col.cookies[r.Entity].add(r.Cookie, a.hint, &a.arena)
}

// BytesMoved returns the modelled aggregation-state traffic of every
// fold so far, in bytes: refMoveBytes per ref consumed, visitMoveBytes
// per visit-counter touch (per ref scalar, per distinct entity per
// block for FoldBatch), and the cookie-structure bytes cookieSet.add
// reports. It is an accounting model computed from column widths and
// touch counts — not a hardware counter — so BENCH rows can track
// bytes moved per click across layout changes. Not synchronized:
// read it only after folding completes.
func (a *Aggregator) BytesMoved() uint64 { return a.moved }

// SetCookieHint tells the aggregator the cookie population is bounded
// by [1, max] — true for any stream SimConfig{Cookies: max} generated —
// letting heavily-visited entities count distinct cookies in a dense
// bitmap instead of a growing hash table. It is purely a performance
// hint: estimates are exact with or without it, cookies outside the
// bound (replayed external logs) still count correctly, and changing
// the hint mid-fold is safe — each converted set is bounded by its own
// bitmap, never by the current hint. GeneratePipeline, which builds
// its own aggregator, sets it automatically.
func (a *Aggregator) SetCookieHint(max int) {
	if max > 0 {
		a.hint = uint64(max)
	}
}

// Add folds one wire click. Clicks for other sites or non-entity URLs
// are ignored (real logs are full of them).
func (a *Aggregator) Add(c logs.Click) {
	r, ok := a.refOf(c)
	if !ok {
		return
	}
	a.AddRef(r)
}

// refOf resolves a wire click to the internal representation, false
// for clicks this aggregator ignores.
func (a *Aggregator) refOf(c logs.Click) (ClickRef, bool) {
	si := srcIdx(c.Source)
	if si < 0 {
		return ClickRef{}, false
	}
	id, ok := a.byURL[c.URL]
	if !ok {
		site, key, okParse := logs.ParseEntityURL(c.URL)
		if !okParse || site != a.site {
			return ClickRef{}, false
		}
		if id, ok = a.byKey[key]; !ok {
			return ClickRef{}, false
		}
	}
	return ClickRef{Cookie: c.Cookie, Entity: int32(id), Day: int16(c.Day), Src: uint8(si)}, true
}

// Demand returns the per-entity estimates for one source, indexed by
// entity ID.
func (a *Aggregator) Demand(source logs.Source) []Estimate {
	si := srcIdx(source)
	if si < 0 {
		return []Estimate{}
	}
	col := &a.perSrc[si]
	out := make([]Estimate, len(col.visits))
	for i := range out {
		out[i] = Estimate{Visits: int(col.visits[i]), UniqueCookies: col.cookies[i].len()}
	}
	return out
}

// UniqueVector extracts the unique-cookie demand vector from estimates.
func UniqueVector(ests []Estimate) []float64 {
	out := make([]float64, len(ests))
	for i, e := range ests {
		out[i] = float64(e.UniqueCookies)
	}
	return out
}
