package demand

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logs"
)

// DefaultWindow is the number of events one generation window covers.
// A window is the unit of generator parallelism: large enough that a
// worker amortizes its RNG jump and channel traffic over thousands of
// events, small enough that windows vastly outnumber workers and the
// work balances. Output never depends on the window size.
const DefaultWindow = 2048

// PipelineConfig sizes the demand pipeline's worker fleet. The zero
// value is fully usable: all knobs default.
type PipelineConfig struct {
	// Generators is the click-generation worker count (<= 0: GOMAXPROCS).
	Generators int
	// Shards is the aggregation shard count (<= 0: GOMAXPROCS).
	Shards int
	// Window is the events-per-window generation granularity
	// (<= 0: DefaultWindow).
	Window int
	// Tap, when non-nil, observes every generated window: the source,
	// the 0-based window index within that source, and the window's
	// clicks in stream order, materialized to the wire representation
	// for the observer. It is called concurrently from generator
	// workers (synchronize externally) and must not mutate or retain
	// the slice. Setting Tap makes the workers allocate one wire slice
	// per window; the ref path itself stays allocation-free.
	Tap func(source logs.Source, window int, clicks []logs.Click)
}

func (p PipelineConfig) withDefaults() PipelineConfig {
	if p.Generators <= 0 {
		p.Generators = runtime.GOMAXPROCS(0)
	}
	if p.Shards <= 0 {
		p.Shards = runtime.GOMAXPROCS(0)
	}
	if p.Window <= 0 {
		p.Window = DefaultWindow
	}
	return p
}

// genWindow is one unit of generation work: events [lo, hi) of one
// source's stream. seq is the window's position in the canonical full
// stream (all search windows in index order, then all browse windows).
type genWindow struct {
	seq    int
	source logs.Source
	index  int // window index within the source
	lo, hi int
}

// genWindows partitions both source streams into windows in canonical
// order.
func genWindows(events, window int) []genWindow {
	var out []genWindow
	seq := 0
	for _, src := range sources {
		for w, lo := 0, 0; lo < events; w, lo = w+1, lo+window {
			hi := lo + window
			if hi > events {
				hi = events
			}
			out = append(out, genWindow{seq: seq, source: src, index: w, lo: lo, hi: hi})
			seq++
		}
	}
	return out
}

// runGenerators fans the window list across p.Generators workers. Each
// worker calls newHandler once to get its private (handle, flush) pair:
// handle is invoked once per window with a gen function that streams
// the window's refs — the handler drives gen with its own emit, so the
// refs flow straight from the RNG into the handler's sink with no
// intermediate buffer — and flush runs at worker exit. Workers skip
// remaining windows once stop is set (nil: never stop). The returned
// error is a sampler-construction failure; generation itself cannot
// fail.
func runGenerators(cat *Catalog, cfg SimConfig, p PipelineConfig, stop *atomic.Bool,
	newHandler func() (handle func(gw genWindow, gen func(emit func(ClickRef) bool)), flush func())) error {
	samplers := make(map[logs.Source]*sourceSampler, len(sources))
	for _, src := range sources {
		sp, err := newSourceSampler(cat, cfg, src)
		if err != nil {
			return err
		}
		samplers[src] = sp
	}
	work := make(chan genWindow)
	var wg sync.WaitGroup
	for w := 0; w < p.Generators; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			handle, flush := newHandler()
			defer flush()
			var buf []ClickRef // Tap replay buffer, reused per worker
			for gw := range work {
				if stop != nil && stop.Load() {
					continue
				}
				t0 := time.Now()                     //repro:nondeterm-ok per-window generation-latency telemetry
				span := spanGenWindow.StartT(worker) //repro:obs-ok one span per generated window (~Window refs), not per ref
				sp := samplers[gw.source]
				gen := func(emit func(ClickRef) bool) {
					sp.generateRefs(gw.lo, gw.hi, emit)
				}
				if p.Tap != nil {
					// Generate once into the replay buffer so the tap
					// observes the window without a second RNG pass.
					buf = buf[:0]
					sp.generateRefs(gw.lo, gw.hi, func(r ClickRef) bool {
						buf = append(buf, r)
						return true
					})
					p.Tap(gw.source, gw.index, materialize(make([]logs.Click, 0, len(buf)), cat, buf))
					gen = func(emit func(ClickRef) bool) {
						for _, r := range buf {
							if !emit(r) {
								return
							}
						}
					}
				}
				handle(gw, gen)
				span.End()
				obsGenWindowSec.ObserveSince(t0)
				obsGenWindows.Inc() //repro:obs-ok one increment per generated window, not per ref
			}
		}(w)
	}
	for _, gw := range genWindows(cfg.Events, p.Window) {
		work <- gw
	}
	close(work)
	wg.Wait()
	return nil
}

// GeneratePipeline simulates the click streams for cat and folds them
// into a ShardedAggregator with no serial stage anywhere: per-window
// generator workers synthesize clicks (leapfrog RNG substreams, see
// internal/dist) and fan them directly into entity-hash shard workers,
// so generation, routing and aggregation all run concurrently. The
// whole path moves 16-byte ClickRefs — no URL is ever formatted,
// hashed or parsed — and spent batches recycle shard → router through
// a free list, so the steady state allocates nothing. Each shard
// worker folds its recycled batches through the cache-blocked columnar
// FoldBatch, not a per-ref AddRef loop. For a fixed seed the merged
// result is byte-identical to serial Simulate + Aggregator.Add for
// every (Generators, Shards, Window) setting: windows are exact
// sub-ranges of the same per-source streams, routing is a pure
// function of the click's entity, and per-entity aggregation is
// order-independent.
func GeneratePipeline(cat *Catalog, cfg SimConfig, p PipelineConfig) (*ShardedAggregator, error) {
	if len(cat.Entities) == 0 {
		return nil, fmt.Errorf("demand: empty catalog")
	}
	cfg = withSimDefaults(cfg, len(cat.Entities))
	p = p.withDefaults()
	sa := NewShardedAggregator(cat, p.Shards)
	sa.SetCookieHint(cfg.Cookies)
	chans, free, wait := sa.startWorkers(8)
	err := runGenerators(cat, cfg, p, nil, func() (func(genWindow, func(func(ClickRef) bool)), func()) {
		r := sa.newRouter(chans, free)
		handle := func(_ genWindow, gen func(emit func(ClickRef) bool)) {
			gen(func(ref ClickRef) bool {
				r.emit(ref)
				return true
			})
		}
		return handle, r.flush
	})
	for i := range chans {
		close(chans[i])
	}
	wait()
	if err != nil {
		return nil, err
	}
	return sa, nil
}

// GenerateOrderedRefs simulates the click streams for cat with
// parallel per-window generator workers but delivers the refs to emit
// from a single goroutine in canonical stream order — exactly the
// sequence SimulateRefBatches produces — for consumers that need an ordered
// stream (segment stores, log files, canonical hashing). A reorder
// buffer holds windows that finish ahead of their turn; its size is
// bounded by the workers' window skew. An emit error stops generation
// promptly and is returned. p.Shards is unused here; Tap fires as in
// GeneratePipeline.
func GenerateOrderedRefs(cat *Catalog, cfg SimConfig, p PipelineConfig, emit func(ClickRef) error) error {
	if len(cat.Entities) == 0 {
		return fmt.Errorf("demand: empty catalog")
	}
	cfg = withSimDefaults(cfg, len(cat.Entities))
	p = p.withDefaults()

	type seqBatch struct {
		seq  int
		refs []ClickRef
	}
	out := make(chan seqBatch, p.Generators)
	var stop atomic.Bool
	var emitErr error
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		next := 0
		held := make(map[int][]ClickRef)
		for b := range out {
			held[b.seq] = b.refs
			for {
				refs, ok := held[next]
				if !ok {
					break
				}
				delete(held, next)
				next++
				if emitErr != nil {
					continue // drain without emitting
				}
				for _, r := range refs {
					if err := emit(r); err != nil {
						emitErr = fmt.Errorf("demand: emit click: %w", err)
						stop.Store(true)
						break
					}
				}
			}
		}
	}()
	err := runGenerators(cat, cfg, p, &stop, func() (func(genWindow, func(func(ClickRef) bool)), func()) {
		handle := func(gw genWindow, gen func(emit func(ClickRef) bool)) {
			refs := make([]ClickRef, 0, gw.hi-gw.lo)
			gen(func(r ClickRef) bool {
				refs = append(refs, r)
				return true
			})
			out <- seqBatch{seq: gw.seq, refs: refs}
		}
		return handle, func() {}
	})
	close(out)
	consumer.Wait()
	if err != nil {
		return err
	}
	return emitErr
}

// GenerateOrdered is GenerateOrderedRefs materialized to the wire
// representation at the delivery boundary — the form file consumers
// (TSV logs, canonical hashing) take. Materializing on the ordered
// consumer goroutine is free of allocation: a wire click borrows the
// catalog's canonical URL string.
func GenerateOrdered(cat *Catalog, cfg SimConfig, p PipelineConfig, emit func(logs.Click) error) error {
	return GenerateOrderedRefs(cat, cfg, p, func(r ClickRef) error {
		return emit(r.Click(cat))
	})
}
