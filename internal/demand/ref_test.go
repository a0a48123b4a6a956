package demand

import (
	"bytes"
	"testing"

	"repro/internal/dist"
	"repro/internal/logs"
)

// simulateRefs is the serial scalar ref stream: SimulateRefBatches
// without the batching, straight off each source's generateRefs. It is
// the reference the batch, sharded and ordered paths are compared
// against.
func simulateRefs(cat *Catalog, cfg SimConfig, emit func(ClickRef)) error {
	cfg = withSimDefaults(cfg, len(cat.Entities))
	for _, source := range sources {
		sp, err := newSourceSampler(cat, cfg, source)
		if err != nil {
			return err
		}
		sp.generateRefs(0, cfg.Events, func(r ClickRef) bool {
			emit(r)
			return true
		})
	}
	return nil
}

// simulateParallel is the serial-producer sharded fold: the simulateRefs
// stream delivered in batches through FeedRefs to `shards` concurrent
// shard workers. GeneratePipeline parallelizes generation too; this is
// the reference that isolates the sharding stage.
func simulateParallel(cat *Catalog, cfg SimConfig, shards int) (*ShardedAggregator, error) {
	sa := NewShardedAggregator(cat, shards)
	cfg = withSimDefaults(cfg, len(cat.Entities))
	sa.SetCookieHint(cfg.Cookies)
	emit, done := sa.FeedRefs()
	buf := make([]ClickRef, 0, DefaultFoldBatch)
	err := simulateRefs(cat, cfg, func(r ClickRef) {
		buf = append(buf, r)
		if len(buf) == cap(buf) {
			emit(buf)
			buf = buf[:0]
		}
	})
	emit(buf)
	done()
	if err != nil {
		return nil, err
	}
	return sa, nil
}

// simulateRange generates events [lo, hi) of one source's wire click
// stream: exactly the clicks Simulate emits at those indices. hi may
// exceed cfg.Events; the stream extends deterministically.
func simulateRange(cat *Catalog, cfg SimConfig, source logs.Source, lo, hi int, emit func(logs.Click) error) error {
	cfg = withSimDefaults(cfg, len(cat.Entities))
	sp, err := newSourceSampler(cat, cfg, source)
	if err != nil {
		return err
	}
	return sp.generate(lo, hi, emit)
}

// TestSimulateRefsMatchesSimulate: the ref stream materialized against
// the catalog is the wire stream, click for click.
func TestSimulateRefsMatchesSimulate(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 120)
	cfg := SimConfig{Events: 5000, Cookies: 700, Seed: 21}
	var wire []logs.Click
	if err := Simulate(cat, cfg, func(c logs.Click) error {
		wire = append(wire, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var refs []ClickRef
	if err := simulateRefs(cat, cfg, func(r ClickRef) { refs = append(refs, r) }); err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(wire) {
		t.Fatalf("%d refs, want %d", len(refs), len(wire))
	}
	for i, r := range refs {
		if got := r.Click(cat); got != wire[i] {
			t.Fatalf("ref %d materializes to %+v, want %+v", i, got, wire[i])
		}
	}
}

// TestAggregatorAddRefMatchesAdd: folding the ref stream equals
// folding the wire stream — the aggregator really does stop parsing
// its own generator's output without changing a single estimate.
func TestAggregatorAddRefMatchesAdd(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 90)
	cfg := SimConfig{Events: 6000, Cookies: 400, Seed: 3}

	wire := NewAggregator(cat)
	if err := Simulate(cat, cfg, func(c logs.Click) error {
		wire.Add(c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ref := NewAggregator(cat)
	if err := simulateRefs(cat, cfg, ref.AddRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(estimateBytes(t, wire), estimateBytes(t, ref)) {
		t.Fatal("AddRef fold differs from Add fold")
	}
}

// TestCookieHintDoesNotChangeEstimates: the bitmap regime is a pure
// performance hint — hinted and unhinted folds agree exactly, as do
// folds whose hint is wrong (cookies beyond the bound take the table
// path).
func TestCookieHintDoesNotChangeEstimates(t *testing.T) {
	cat := testCatalog(t, logs.IMDb, 40)
	// Few entities + tiny population force inline, spill, convert and
	// post-convert regimes all to occur.
	cfg := SimConfig{Events: 20000, Cookies: 150, Seed: 8}
	plain := NewAggregator(cat)
	hinted := NewAggregator(cat)
	hinted.SetCookieHint(cfg.Cookies)
	tight := NewAggregator(cat)
	tight.SetCookieHint(40) // wrong on purpose: most cookies overflow it
	if err := simulateRefs(cat, cfg, func(r ClickRef) {
		plain.AddRef(r)
		hinted.AddRef(r)
		tight.AddRef(r)
	}); err != nil {
		t.Fatal(err)
	}
	want := estimateBytes(t, plain)
	if !bytes.Equal(want, estimateBytes(t, hinted)) {
		t.Fatal("cookie hint changed estimates")
	}
	if !bytes.Equal(want, estimateBytes(t, tight)) {
		t.Fatal("too-tight cookie hint changed estimates")
	}
}

// TestAggregatorAddRefIgnoresBadRefs: out-of-range refs are dropped
// like foreign clicks, never panic.
func TestAggregatorAddRefIgnoresBadRefs(t *testing.T) {
	cat := testCatalog(t, logs.Yelp, 10)
	a := NewAggregator(cat)
	for _, r := range []ClickRef{
		{Entity: -1, Cookie: 1},
		{Entity: 10, Cookie: 1},
		{Entity: 0, Cookie: 1, Src: 2},
	} {
		a.AddRef(r)
	}
	for _, src := range sources {
		for i, e := range a.Demand(src) {
			if e.Visits != 0 || e.UniqueCookies != 0 {
				t.Fatalf("%s entity %d polluted by bad ref: %+v", src, i, e)
			}
		}
	}
	if got := a.Demand("weird"); len(got) != 0 {
		t.Fatalf("unknown source demand = %v, want empty", got)
	}
}

// TestAggregatorAddParsePath: a non-canonical URL spelling of a
// catalog entity resolves through the regex parser to the same entity
// as the interned canonical URL.
func TestAggregatorAddParsePath(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 20)
	a := NewAggregator(cat)
	key := cat.Entities[4].Key
	a.Add(logs.Click{Source: logs.Search, Cookie: 1, URL: cat.Entities[4].URL})
	a.Add(logs.Click{Source: logs.Search, Cookie: 2, URL: "https://amazon.com/widgets/dp/" + key + "?tag=x"})
	a.Add(logs.Click{Source: logs.Search, Cookie: 2, URL: "http://other.example.com/nothing"})
	a.Add(logs.Click{Source: "weird", Cookie: 3, URL: cat.Entities[4].URL})
	got := a.Demand(logs.Search)[4]
	if got.Visits != 2 || got.UniqueCookies != 2 {
		t.Fatalf("entity 4 = %+v, want 2 visits / 2 cookies", got)
	}
}

// TestFeedMatchesSerial: the wire-click Feed path (log replay) equals
// the serial fold for any shard count.
func TestFeedMatchesSerial(t *testing.T) {
	cat := testCatalog(t, logs.IMDb, 70)
	cfg := SimConfig{Events: 6000, Cookies: 500, Seed: 11}
	serial := NewAggregator(cat)
	if err := Simulate(cat, cfg, func(c logs.Click) error {
		serial.Add(c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 7} {
		sa := NewShardedAggregator(cat, shards)
		emit, done := sa.Feed()
		if err := Simulate(cat, cfg, func(c logs.Click) error {
			emit(c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		done()
		if !bytes.Equal(estimateBytes(t, serial), estimateBytes(t, sa)) {
			t.Fatalf("Feed with %d shards differs from serial fold", shards)
		}
	}
}

// TestCookieSetAgainstMapReference drives one cookieSet through every
// regime — inline, spilled table, bitmap conversion, overflow cookies
// beyond the hint, and cookie 0 — checking the count against a map at
// every step.
func TestCookieSetAgainstMapReference(t *testing.T) {
	const hint = 512
	var s cookieSet
	var ar wordArena
	ref := map[uint64]struct{}{}
	rng := dist.NewRNG(99)
	for i := 0; i < 20000; i++ {
		var c uint64
		switch rng.Intn(10) {
		case 0:
			c = 0 // the sentinel-adjacent special case
		case 1, 2:
			c = uint64(rng.Intn(20)) // heavy duplicates
		case 3:
			c = hint + uint64(rng.Intn(100)) + 1 // beyond the hint
		default:
			c = uint64(rng.Intn(hint)) + 1 // hinted population
		}
		s.add(c, hint, &ar)
		ref[c] = struct{}{}
		if s.len() != len(ref) {
			t.Fatalf("after %d adds: len %d, want %d", i+1, s.len(), len(ref))
		}
	}
	if s.bits == nil {
		t.Fatal("test never reached the bitmap regime")
	}
	if s.slots == nil {
		t.Fatal("test never kept overflow cookies beside the bitmap")
	}
}

// TestCookieSetHintChangeMidFold: the hint may move (or be set late)
// between adds without panics or double counting — every converted
// set stays bounded by its own bitmap, with cookies beyond it on the
// table path, including cookies in the rounding gap between the
// conversion-time hint and the bitmap's word-aligned capacity.
func TestCookieSetHintChangeMidFold(t *testing.T) {
	var s cookieSet
	var ar wordArena
	ref := map[uint64]struct{}{}
	add := func(c, hint uint64) {
		s.add(c, hint, &ar)
		if c != 0 {
			ref[c] = struct{}{}
		}
		if s.len() != len(ref) {
			t.Fatalf("after add(%d, hint=%d): len %d, want %d", c, hint, s.len(), len(ref))
		}
	}
	// Overflow cookie (beyond hint 100, inside the 128-wide bitmap
	// rounding gap) seen before conversion...
	add(120, 100)
	// ...then enough small cookies at hint=100 to convert to a bitmap.
	for c := uint64(1); c <= 90; c++ {
		add(c, 100)
	}
	if s.bits == nil {
		t.Fatal("set never converted; the scenario needs the bitmap regime")
	}
	// The gap cookie again: must stay on one structure, not recount.
	add(120, 100)
	// Hint raised past the bitmap: big cookies go to the table, small
	// ones still hit the (unchanged) bitmap, nothing indexes past it.
	add(5000, 10000)
	add(5000, 10000)
	add(50, 10000)
	// Hint lowered: bitmap-resident cookies must not migrate.
	add(90, 10)
	add(120, 10)
}

// TestCookieSetUnhinted exercises the pure table path at sizes that
// force repeated growth.
func TestCookieSetUnhinted(t *testing.T) {
	var s cookieSet
	var ar wordArena
	for c := uint64(1); c <= 5000; c++ {
		s.add(c, 0, &ar)
		s.add(c, 0, &ar) // duplicate: must not double-count
	}
	if s.len() != 5000 {
		t.Fatalf("len = %d, want 5000", s.len())
	}
	if s.bits != nil {
		t.Fatal("bitmap must not engage without a hint")
	}
}

// TestSketchAddRefMatchesAdd: the sketched aggregator's ref path
// agrees with its wire path, and ignores bad refs.
func TestSketchAddRefMatchesAdd(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 50)
	cfg := SimConfig{Events: 4000, Cookies: 300, Seed: 13}
	wire, err := NewSketchAggregator(cat, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := Simulate(cat, cfg, func(c logs.Click) error {
		wire.Add(c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	refs, err := NewSketchAggregator(cat, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := simulateRefs(cat, cfg, refs.AddRef); err != nil {
		t.Fatal(err)
	}
	refs.AddRef(ClickRef{Entity: -1})
	refs.AddRef(ClickRef{Entity: 50})
	refs.AddRef(ClickRef{Src: 9})
	if !bytes.Equal(estimateBytes(t, wire), estimateBytes(t, refs)) {
		t.Fatal("sketch AddRef differs from Add")
	}
}

// TestCatalogByURLConsistent: ByURL agrees with ByKey through the
// EntityURL/ParseEntityURL inverse pair, and is memoized.
func TestCatalogByURLConsistent(t *testing.T) {
	cat := testCatalog(t, logs.IMDb, 30)
	byURL, byKey := cat.ByURL(), cat.ByKey()
	if len(byURL) != len(byKey) {
		t.Fatalf("ByURL has %d entries, ByKey %d", len(byURL), len(byKey))
	}
	for url, id := range byURL {
		site, key, ok := logs.ParseEntityURL(url)
		if !ok || site != cat.Site {
			t.Fatalf("catalog URL %q does not parse to site %s", url, cat.Site)
		}
		if byKey[key] != id {
			t.Fatalf("ByURL[%q]=%d but ByKey[%q]=%d", url, id, key, byKey[key])
		}
	}
	// Memoized: repeated calls return the same underlying map.
	byURL["\x00sentinel"] = -1
	if _, ok := cat.ByURL()["\x00sentinel"]; !ok {
		t.Fatal("ByURL not memoized: second call rebuilt the map")
	}
	delete(byURL, "\x00sentinel")
}
