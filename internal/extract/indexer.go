package extract

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/index"
)

// Indexer aggregates extracted page mentions by host into the
// per-attribute entity–host indexes of §3.1. It is the one aggregation
// stage behind every extraction pipeline: synth.Web.ExtractIndexes over
// rendered pages and core.ExtractWARC over a crawl archive. Add is safe
// for concurrent use; each goroutine extracts through its own Session.
type Indexer struct {
	x        *Extractor
	builders map[entity.Attr]*index.ShardedBuilder
}

// NewIndexer returns an Indexer for db whose builders hash hosts into
// shards locks (< 1 means 1). reviewClf is required when the domain
// studies reviews: without it the review index would silently come out
// empty.
func NewIndexer(db *entity.DB, reviewClf *classify.NaiveBayes, shards int) (*Indexer, error) {
	if db != nil && studiesReviews(db.Domain) && reviewClf == nil {
		return nil, fmt.Errorf("extract: %s extraction needs a review classifier", db.Domain)
	}
	x, err := New(db, reviewClf)
	if err != nil {
		return nil, err
	}
	attrs := entity.AttrsFor(db.Domain)
	ix := &Indexer{x: x, builders: make(map[entity.Attr]*index.ShardedBuilder, len(attrs))}
	for _, a := range attrs {
		ix.builders[a] = index.NewShardedBuilder(db.Domain, a, db.N(), shards)
	}
	return ix, nil
}

// NewSession returns a streaming extraction session for one worker.
func (ix *Indexer) NewSession() (*Session, error) { return ix.x.NewSession() }

// Add records one page of host from its mentions (a Session.Page
// result). A page with a review mention also counts as one review page
// of host.
func (ix *Indexer) Add(host string, mentions []Mention) {
	review := false
	for _, m := range mentions {
		if b, ok := ix.builders[m.Attr]; ok {
			b.Add(host, m.EntityID)
		}
		if m.Attr == entity.AttrReview {
			review = true
		}
	}
	if review {
		ix.builders[entity.AttrReview].AddPage(host)
	}
}

// Indexes builds the per-attribute indexes, with the coverage
// denominators set by index.SetUniverses. Callers must ensure no Add is
// in flight.
func (ix *Indexer) Indexes() (map[entity.Attr]*index.Index, error) {
	out := make(map[entity.Attr]*index.Index, len(ix.builders))
	for a, b := range ix.builders {
		idx, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("extract: build %s index: %w", a, err)
		}
		out[a] = idx
	}
	index.SetUniverses(ix.x.db, out)
	return out, nil
}
