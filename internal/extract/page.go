// Package extract implements the identifying-attribute extractors of
// §3.2: US phone numbers, ISBNs with the string "ISBN" in a small window
// near the match, homepage extraction from anchor hrefs, and review-page
// detection via the Naïve-Bayes classifier. Extracted values are matched
// against the entity database to establish entity presence on a page.
//
// Session is the one production path: a streaming, allocation-free
// pipeline that matches the database's rendered attribute forms with an
// Aho–Corasick automaton over the page text. A retained-DOM,
// regular-expression extractor (Extractor.Page) lives in the package's
// tests as the oracle the Session must agree with.
package extract

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/entity"
)

// Mention records that a page mentions an entity via one attribute.
type Mention struct {
	EntityID int
	Attr     entity.Attr
}

// Extractor holds the read-only extraction state for one domain
// database: the multi-pattern automaton over the database's rendered
// attribute forms (phones for local businesses, ISBNs and markers for
// books) and the review classifier. The zero value is unusable;
// construct with New. An Extractor is safe for concurrent use; each
// goroutine extracts through its own Session (NewSession).
type Extractor struct {
	db         *entity.DB
	ac         *AhoCorasick
	reviewClf  *classify.NaiveBayes // nil disables review detection
	reviewAttr bool                 // whether the domain studies reviews
}

// New returns an Extractor for db, building its automaton. reviewClf
// may be nil when review detection is not required (it is only used
// for restaurants in the paper; NewIndexer requires it there). New
// errors if the database has no patterns for its domain or the
// classifier is untrained.
func New(db *entity.DB, reviewClf *classify.NaiveBayes) (*Extractor, error) {
	if db == nil {
		return nil, fmt.Errorf("extract: nil entity database")
	}
	if reviewClf != nil && !reviewClf.Trained() {
		return nil, fmt.Errorf("extract: review classifier is untrained")
	}
	x := &Extractor{db: db, reviewClf: reviewClf, reviewAttr: studiesReviews(db.Domain)}
	var err error
	if db.Domain == entity.Books {
		x.ac, err = ISBNAutomaton(db)
	} else {
		x.ac, err = PhoneAutomaton(db)
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// studiesReviews reports whether the domain has the review attribute.
func studiesReviews(d entity.Domain) bool {
	for _, a := range entity.AttrsFor(d) {
		if a == entity.AttrReview {
			return true
		}
	}
	return false
}
