package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/entity"
	"repro/internal/index"
	"repro/internal/logs"
	"repro/internal/seg"
	"repro/internal/synth"
)

// crawlInputs is one restaurants web with its review classifier.
type crawlInputs struct {
	web    *synth.Web
	clf    *classify.NaiveBayes
	direct map[entity.Attr]*index.Index // web.DirectIndexes(), the extraction reference
}

// newCrawl makes the web of pass i; every pass crawls its own web, so a
// run averages over the page counts and shapes of several.
func newCrawl(r *run, i int) (*crawlInputs, error) {
	cfg := r.size.crawl
	cfg.Seed = subSeed(r.seed, i)
	st := core.NewStudy(cfg)
	web, err := st.Web(entity.Restaurants)
	if err != nil {
		return nil, err
	}
	clf, err := st.ReviewClassifier()
	if err != nil {
		return nil, err
	}
	return &crawlInputs{web: web, clf: clf, direct: web.DirectIndexes()}, nil
}

// ingestInputs are what the paper's two raw inputs are made from: the
// first pass's crawl, and the yelp catalog and click-log configuration
// every pass shares.
type ingestInputs struct {
	crawl *crawlInputs
	cat   *demand.Catalog
	sim   demand.SimConfig
	want  map[logs.Source][]demand.Estimate // GeneratePipeline's aggregates, the replay reference
}

// newIngestInputs is the timed set-up. It leaves out the replay
// reference, which only the check needs; setReference adds it.
func newIngestInputs(r *run) (*ingestInputs, error) {
	crawl, err := newCrawl(r, 0)
	if err != nil {
		return nil, err
	}
	cat, err := core.NewStudy(core.Config{Seed: r.seed, CatalogN: r.size.catalogN}).Catalog(logs.Yelp)
	if err != nil {
		return nil, err
	}
	sim := demand.SimConfig{Events: r.size.clicks, Cookies: 8 * r.size.catalogN, Seed: r.seed ^ 0x51b}
	return &ingestInputs{crawl: crawl, cat: cat, sim: sim}, nil
}

// setReference aggregates the click log with GeneratePipeline, the
// reference every replay must equal.
func (in *ingestInputs) setReference() error {
	sa, err := demand.GeneratePipeline(in.cat, in.sim, demand.PipelineConfig{Generators: 2, Shards: 2})
	if err != nil {
		return err
	}
	in.want = estimates(sa)
	return nil
}

// ingestPass is one write-then-read of both inputs.
type ingestPass struct {
	warcWrite, extract, segWrite, replay, pushdown step
	warcBytes, segBytes                            int64
	pages                                          int
	full, pushed                                   seg.ReplayStats

	// Traced passes only: generation into a discarding emit and replay
	// into a counting fold, which separate the layers under seg.write
	// and seg.replay.
	generate, decode step
}

// total sums the pass's five timed steps.
func (p *ingestPass) total() step {
	var t step
	for _, s := range []step{p.warcWrite, p.extract, p.segWrite, p.replay, p.pushdown} {
		t.wall += s.wall
		t.cpu += s.cpu
	}
	return t
}

// clickRate is clicks written plus clicks replayed per CPU second of
// the segment write and the full replay.
func (p *ingestPass) clickRate(events int) float64 {
	return 4 * float64(events) / (p.segWrite.cpu + p.replay.cpu).Seconds()
}

// searchSrc is the pushdown predicate's source.
var searchSrc, _ = demand.SourceIndex(logs.Search)

// ingestOnce writes the crawl as a WARC file and extracts it
// (cmd/genweb → cmd/extract), then writes the click log as a segment
// file and replays it into the sharded aggregator, in full and with a
// source pushdown (cmd/clicklog gen -format seg → agg). It checks every
// output against the inputs' references.
func ingestOnce(r *run, in *ingestInputs, crawl *crawlInputs, tr *tracer) (*ingestPass, error) {
	p := &ingestPass{}
	root := tr.begin("ingest", -1, 0)
	defer tr.end(root)
	timed := func(layer string, d *step, f func() error) error {
		id := tr.begin(layer, root, 0)
		var err error
		*d, err = timeStep(f)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", layer, err)
		}
		return nil
	}

	warcPath := filepath.Join(r.dir, "crawl.warc")
	var cdxPages int
	err := timed("warc.write", &p.warcWrite, func() error {
		f, err := os.Create(warcPath)
		if err != nil {
			return err
		}
		cdx, err := core.WriteWARC(crawl.web, f, false)
		if err != nil {
			f.Close()
			return err
		}
		cdxPages = len(cdx.Entries)
		return f.Close()
	})
	if err != nil {
		return nil, err
	}
	var idxs map[entity.Attr]*index.Index
	err = timed("extract.warc", &p.extract, func() error {
		f, err := os.Open(warcPath)
		if err != nil {
			return err
		}
		defer f.Close()
		idxs, p.pages, err = core.ExtractWARC(f, crawl.web.DB, crawl.clf)
		return err
	})
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(warcPath); err == nil {
		p.warcBytes = fi.Size()
	}
	os.Remove(warcPath)

	segPath := filepath.Join(r.dir, "clicks.seg")
	err = timed("seg.write", &p.segWrite, func() error {
		f, err := os.Create(segPath)
		if err != nil {
			return err
		}
		sw := seg.NewWriter(f, r.size.segRows)
		err = demand.GenerateOrderedRefs(in.cat, in.sim, demand.PipelineConfig{Generators: 2}, sw.Add)
		if err == nil {
			err = sw.Close()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(segPath); err == nil {
		p.segBytes = fi.Size()
	}
	rd, err := seg.OpenFile(segPath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(segPath)
	defer rd.Close()
	replay := func(pred seg.Predicate, st *seg.ReplayStats) (*demand.ShardedAggregator, error) {
		sa := demand.NewShardedAggregator(in.cat, 2)
		sa.SetCookieHint(in.sim.Cookies)
		emit, done := sa.FeedRefs()
		var err error
		*st, err = rd.Replay(pred, emit)
		done()
		return sa, err
	}
	var full *demand.ShardedAggregator
	err = timed("seg.replay", &p.replay, func() (err error) {
		full, err = replay(seg.All(), &p.full)
		return err
	})
	if err != nil {
		return nil, err
	}
	got := estimates(full)
	full = nil // the aggregators are large; keep one live at a time
	err = timed("seg.replay_pushdown", &p.pushdown, func() error {
		_, err := replay(seg.All().WithSrc(searchSrc), &p.pushed)
		return err
	})
	if err != nil {
		return nil, err
	}

	if tr != nil {
		err = timed("demand.generate", &p.generate, func() error {
			return demand.GenerateOrderedRefs(in.cat, in.sim, demand.PipelineConfig{Generators: 2}, func(demand.ClickRef) error { return nil })
		})
		if err != nil {
			return nil, err
		}
		decoded := 0
		err = timed("seg.replay_decode", &p.decode, func() error {
			_, err := rd.Replay(seg.All(), func(b []demand.ClickRef) { decoded += len(b) })
			return err
		})
		if err != nil {
			return nil, err
		}
		if decoded != 2*in.sim.Events {
			return nil, fmt.Errorf("decoded %d refs of %d", decoded, 2*in.sim.Events)
		}
	}

	if p.pages != cdxPages {
		return nil, fmt.Errorf("extracted %d pages of %d written", p.pages, cdxPages)
	}
	if !reflect.DeepEqual(idxs, crawl.direct) {
		return nil, fmt.Errorf("ExtractWARC indexes differ from the web's direct indexes")
	}
	clicks := uint64(in.sim.Events)
	if p.full.Matched != 2*clicks || p.pushed.Matched != clicks {
		return nil, fmt.Errorf("replay matched %d (pushdown %d); want %d (%d)", p.full.Matched, p.pushed.Matched, 2*clicks, clicks)
	}
	if !reflect.DeepEqual(got, in.want) {
		return nil, fmt.Errorf("replayed demand differs from GeneratePipeline's")
	}
	return p, nil
}

func estimates(sa *demand.ShardedAggregator) map[logs.Source][]demand.Estimate {
	return map[logs.Source][]demand.Estimate{logs.Search: sa.Demand(logs.Search), logs.Browse: sa.Demand(logs.Browse)}
}

// runIngest repeats the ingest pass, each on its own web. job_cpu_s is
// the trimmed mean CPU time of a pass, which the crawl extraction
// dominates; items_per_cpu_s is the trimmed mean click-log round-trip
// rate of a pass: clicks written plus clicks replayed per CPU second of
// both.
func runIngest(r *run) error {
	var in *ingestInputs
	err := r.setups(func() (func(), error) {
		var err error
		in, err = newIngestInputs(r)
		return nil, err
	})
	if err != nil {
		return err
	}
	if err := in.setReference(); err != nil {
		return fmt.Errorf("replay reference: %w", err)
	}
	if r.traced {
		return ingestTraced(r, in)
	}
	var spent time.Duration
	var walls, cpus, rates []float64
	n, i := r.count(r.size.ingestPasses), 0
	for ; r.more(i, n, spent); i++ {
		crawl := in.crawl
		if i > 0 {
			if crawl, err = newCrawl(r, i); err != nil {
				return err
			}
		}
		r.attempted++
		runtime.GC()
		p, err := ingestOnce(r, in, crawl, nil)
		if err != nil {
			r.failed++
			return err
		}
		t := p.total()
		spent += t.wall
		walls = append(walls, t.wall.Seconds())
		cpus = append(cpus, t.cpu.Seconds())
		rates = append(rates, p.clickRate(in.sim.Events))
		r.logf("pass %d: wall %.3fs, cpu %.3fs: warc write %.3fs, extract %.3fs (%d pages), seg write %.3fs, replay %.3fs, pushdown %.3fs",
			i, t.wall.Seconds(), t.cpu.Seconds(), p.warcWrite.wall.Seconds(), p.extract.wall.Seconds(), p.pages,
			p.segWrite.wall.Seconds(), p.replay.wall.Seconds(), p.pushdown.wall.Seconds())
	}
	r.logf("pass wall trimmed mean %.3fs", trimmedMean(walls))
	r.set("peak_rss_mb", peakRSSMB())
	r.set("job_cpu_s", trimmedMean(cpus))
	r.set("items_per_cpu_s", trimmedMean(rates))
	return nil
}

// ingestTraced runs the first pass three times: untraced to warm the
// heap, untraced, and traced (the last two differ by the tracing
// overhead).
func ingestTraced(r *run, in *ingestInputs) error {
	var passes []*ingestPass
	tr := newTracer()
	for _, t := range []*tracer{nil, nil, tr} {
		r.attempted++
		runtime.GC()
		p, err := ingestOnce(r, in, in.crawl, t)
		if err != nil {
			r.failed++
			return err
		}
		passes = append(passes, p)
	}
	plain, p := passes[1], passes[2]

	clicks := float64(2 * in.sim.Events)
	r.set("trace.overhead_s", (p.total().wall - plain.total().wall).Seconds())
	r.set("crawl_pages_per_s", float64(plain.pages)/plain.extract.wall.Seconds())
	r.set("clicklog_gen_clicks_per_s", clicks/plain.segWrite.wall.Seconds())
	r.set("clicklog_agg_clicks_per_s", clicks/plain.replay.wall.Seconds())
	r.set("warc.write_s", p.warcWrite.wall.Seconds())
	r.set("warc.bytes", float64(p.warcBytes))
	r.set("extract.warc_s", p.extract.wall.Seconds())
	r.set("extract.pages", float64(p.pages))
	r.set("demand.generate_s", p.generate.wall.Seconds())
	r.set("seg.write_s", p.segWrite.wall.Seconds())
	r.set("seg.bytes_per_click", float64(p.segBytes)/clicks)
	r.set("seg.replay_decode_s", p.decode.wall.Seconds())
	r.set("seg.replay_s", p.replay.wall.Seconds())
	r.set("seg.replay_pushdown_s", p.pushdown.wall.Seconds())
	r.set("seg.skipped_segments", float64(p.pushed.Skipped))
	r.set("seg.matched_over_scanned", float64(p.pushed.Matched)/float64(p.pushed.Rows))
	r.logf("full replay: %d segments, %d rows; pushdown: %d skipped, %d rows scanned, %d matched",
		p.full.Segments, p.full.Rows, p.pushed.Skipped, p.pushed.Rows, p.pushed.Matched)
	return tr.writeChrome(r.tracePath("ingest"))
}
