package extract

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/htmlx"
)

// This file, phone_oracle_test.go and isbn_oracle_test.go hold the
// retained-DOM, regular-expression extractor that Session replaced. It
// is the test oracle: the Session property tests compare every rendered
// page's mentions against Page, and the ablation benchmarks measure the
// two paths side by side.

// Page extracts all entity mentions from one HTML page through the
// retained DOM. The extraction mirrors §3.2:
//
//   - phone: regex over the rendered page text,
//   - ISBN: digit runs with an "ISBN" marker in a window, over page text,
//   - homepage: href values of anchor elements matched against the DB,
//   - reviews: pages matching a restaurant phone are classified with
//     Naïve Bayes; a positive page yields a review mention for every
//     phone-matched entity on it.
func (x *Extractor) Page(html []byte) []Mention {
	doc := htmlx.Parse(html)
	text := doc.Text()
	var out []Mention

	if x.db.Domain == entity.Books {
		for _, id := range MatchISBNs(x.db, text) {
			out = append(out, Mention{EntityID: id, Attr: entity.AttrISBN})
		}
		return out
	}

	phoneIDs := MatchPhones(x.db, text)
	for _, id := range phoneIDs {
		out = append(out, Mention{EntityID: id, Attr: entity.AttrPhone})
	}

	seenHome := make(map[int]struct{})
	for _, href := range doc.Anchors() {
		if id, ok := x.db.LookupHomepage(href); ok {
			if _, dup := seenHome[id]; !dup {
				seenHome[id] = struct{}{}
				out = append(out, Mention{EntityID: id, Attr: entity.AttrHomepage})
			}
		}
	}

	if x.reviewAttr && x.reviewClf != nil && len(phoneIDs) > 0 {
		if isReview, err := x.reviewClf.Classify(text); err == nil && isReview {
			for _, id := range phoneIDs {
				out = append(out, Mention{EntityID: id, Attr: entity.AttrReview})
			}
		}
	}
	return out
}

// TrainReviewClassifier builds a review classifier from materialized
// labeled pages (HTML in, label = page is a review page): the oracle
// for the streaming Trainer.
func TrainReviewClassifier(pages [][]byte, labels []bool) (*classify.NaiveBayes, error) {
	if len(pages) != len(labels) {
		return nil, fmt.Errorf("extract: %d pages vs %d labels", len(pages), len(labels))
	}
	tr := NewTrainer(1)
	for i, p := range pages {
		tr.Add(p, labels[i])
	}
	return tr.Classifier()
}

// Match is one automaton hit.
type Match struct {
	Value int // payload of the matched pattern
	End   int // byte offset just past the match
}

// FindAll returns every pattern occurrence in text: the materialized
// oracle for Feed.
func (ac *AhoCorasick) FindAll(text string) []Match {
	var out []Match
	s := int32(0)
	stride := int32(ac.stride)
	for i := 0; i < len(text); i++ {
		s = ac.next[s*stride+int32(ac.class[text[i]])]
		for _, pi := range ac.out[s] {
			out = append(out, Match{Value: ac.vals[pi], End: i + 1})
		}
	}
	return out
}

// FindValues returns the distinct payload values occurring in text, in
// first-appearance order.
func (ac *AhoCorasick) FindValues(text string) []int {
	var out []int
	seen := make(map[int]struct{})
	s := int32(0)
	stride := int32(ac.stride)
	for i := 0; i < len(text); i++ {
		s = ac.next[s*stride+int32(ac.class[text[i]])]
		for _, pi := range ac.out[s] {
			v := ac.vals[pi]
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
	}
	return out
}
