package synth

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/index"
)

// DirectIndexes builds the per-attribute entity–host indexes straight
// from the model's coverage decisions, bypassing HTML. This is the fast
// path used for large parameter sweeps; ExtractIndexes (render → parse →
// extract → aggregate) produces identical indexes on the same web, which
// the test suite asserts.
func (w *Web) DirectIndexes() map[entity.Attr]*index.Index {
	// Every site's host is unique by construction, so the site index
	// is its dense host id.
	hosts := make([]string, len(w.Sites))
	for si := range w.Sites {
		hosts[si] = w.Sites[si].Host
	}
	attrs := entity.AttrsFor(w.Config.Domain)
	builders := make(map[entity.Attr]*index.Builder, len(attrs))
	for _, a := range attrs {
		builders[a] = index.NewHostBuilder(w.Config.Domain, a, w.DB.N(), hosts)
	}
	keyAttr := entity.AttrPhone
	if w.Config.Domain == entity.Books {
		keyAttr = entity.AttrISBN
	}
	// A domain that does not study an attribute has a nil builder for it.
	key, homepage, review := builders[keyAttr], builders[entity.AttrHomepage], builders[entity.AttrReview]
	for si := range w.Sites {
		for _, l := range w.Sites[si].Listings {
			if l.HasKey {
				key.AddAt(si, l.Entity)
			}
			if l.HasHomepage && homepage != nil {
				homepage.AddAt(si, l.Entity)
			}
			if l.Reviews > 0 && review != nil {
				review.AddAt(si, l.Entity)
				review.AddPagesAt(si, l.Reviews)
			}
		}
	}
	out := make(map[entity.Attr]*index.Index, len(builders))
	for a, b := range builders {
		out[a] = b.Build()
	}
	index.SetUniverses(w.DB, out)
	return out
}

// ExtractIndexes runs the full extraction pipeline over the rendered
// web: each site's pages stream through the fused render → tokenize →
// match → classify pipeline (synth.RenderPages into pooled buffers,
// extract.Session over htmlx's streaming visitor), and an
// extract.Indexer aggregates the mentions by host into per-attribute
// indexes. No page, DOM, or text string is ever materialized, so the
// hot loop performs near-zero allocation. Work is spread over workers
// goroutines (<= 0 means GOMAXPROCS); the result is index-identical to
// DirectIndexes for every worker count. reviewClf may be nil for
// domains without the review attribute; restaurants require it.
func (w *Web) ExtractIndexes(reviewClf *classify.NaiveBayes, workers int) (map[entity.Attr]*index.Index, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ix, err := extract.NewIndexer(w.DB, reviewClf, 4*workers)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	sessions := make([]*extract.Session, workers)
	for i := range sessions {
		if sessions[i], err = ix.NewSession(); err != nil {
			return nil, fmt.Errorf("synth: build extraction session: %w", err)
		}
	}

	siteCh := make(chan *Site, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(sess *extract.Session) {
			defer wg.Done()
			var cur *Site
			emit := func(_ string, html []byte) { ix.Add(cur.Host, sess.Page(html)) }
			for s := range siteCh {
				cur = s
				w.RenderPages(s, emit)
			}
		}(sessions[i])
	}
	for si := range w.Sites {
		siteCh <- &w.Sites[si]
	}
	close(siteCh)
	wg.Wait()
	return ix.Indexes()
}
