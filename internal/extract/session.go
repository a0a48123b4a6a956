package extract

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/htmlx"
)

// Session is the streaming extraction pipeline for one worker: it fuses
// tokenize → match → classify over a page without building the DOM, the
// joined text string, or per-call token slices. All scratch state is
// reused across pages, so Page performs zero allocations at steady
// state. Output is mention-identical on rendered pages to the
// retained-DOM, regular-expression extractor kept in the package's tests
// as the oracle (Extractor.Page there) — pinned by the property tests.
//
// A Session is not safe for concurrent use; create one per goroutine
// with Extractor.NewSession (sessions share the extractor's read-only
// automaton and classifier).
type Session struct {
	x  *Extractor
	ac *AhoCorasick

	str htmlx.Streamer

	// text accumulates the page's whitespace-collapsed text — byte for
	// byte the string the DOM path materializes via Node.Text — and is
	// what the automaton and scorer consume incrementally.
	text    []byte
	started bool // a non-space byte has been emitted
	pending bool // whitespace run awaiting collapse into one ' '

	acState int32
	scorer  *classify.Scorer

	mentions []Mention
	phoneIDs []int
	homeIDs  []int

	// Generation-stamped dedup marks, indexed by dense entity ID: no
	// per-page map clearing.
	gen      uint64
	seenKey  []uint64 // phone or ISBN mentions
	seenHome []uint64

	// Books: candidate/marker positions for the §3.2 "ISBN" window rule,
	// resolved in candidate order at end of page.
	cands   []isbnCand
	markers []int

	urlBuf []byte // canonical-homepage scratch

	onTextF   func([]byte)
	onAnchorF func([]byte)
	emitF     func(pi int32, end int)
}

// isbnWindow is how many bytes around an ISBN match are searched for
// the literal string "ISBN" (§3.2: "along with the string 'ISBN' in a
// small window near the match").
const isbnWindow = 48

// isbnCand is one automaton ISBN hit: [lo, hi) in collapsed-text
// coordinates plus the owning entity.
type isbnCand struct {
	lo, hi int
	id     int
}

// NewSession returns a streaming extraction session over the
// extractor's shared automaton. It errors if the classifier is
// unusable.
func (x *Extractor) NewSession() (*Session, error) {
	s := &Session{
		x:        x,
		ac:       x.ac,
		seenKey:  make([]uint64, x.db.N()),
		seenHome: make([]uint64, x.db.N()),
	}
	if x.reviewAttr && x.reviewClf != nil {
		var err error
		s.scorer, err = x.reviewClf.NewScorer()
		if err != nil {
			return nil, err
		}
	}
	s.onTextF = s.onText
	s.onAnchorF = s.onAnchor
	s.emitF = s.onHit
	return s, nil
}

// Page extracts all entity mentions from one HTML page via the fused
// streaming pipeline. The returned slice is reused by the next Page
// call; copy it if it must outlive the call. Semantics follow §3.2:
// phones (or ISBNs with a nearby "ISBN" marker)
// matched against the database over rendered page text, homepages from
// anchor hrefs, and — when a classifier is present — a review mention
// per phone-matched entity on positively classified pages.
//
//repro:noalloc
func (s *Session) Page(html []byte) []Mention {
	s.gen++
	if s.gen == 0 { // uint64 wrap: clear stale marks, then restart at 1
		clear(s.seenKey)
		clear(s.seenHome)
		s.gen = 1
	}
	s.text = s.text[:0]
	s.started = false
	s.pending = false
	s.acState = 0
	s.mentions = s.mentions[:0]
	s.phoneIDs = s.phoneIDs[:0]
	s.homeIDs = s.homeIDs[:0]
	s.cands = s.cands[:0]
	s.markers = s.markers[:0]
	if s.scorer != nil {
		s.scorer.Reset()
	}

	s.str.Stream(html, s.onTextF, s.onAnchorF)

	if s.x.db.Domain == entity.Books {
		for _, c := range s.cands {
			if !s.markerNear(c) {
				continue
			}
			if s.seenKey[c.id] == s.gen {
				continue
			}
			s.seenKey[c.id] = s.gen
			s.mentions = append(s.mentions, Mention{EntityID: c.id, Attr: entity.AttrISBN}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
		}
		return s.mentions
	}

	for _, id := range s.phoneIDs {
		s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrPhone}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
	}
	for _, id := range s.homeIDs {
		s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrHomepage}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
	}
	if s.x.reviewAttr && s.scorer != nil && len(s.phoneIDs) > 0 {
		if s.scorer.LogOdds() > 0 {
			for _, id := range s.phoneIDs {
				s.mentions = append(s.mentions, Mention{EntityID: id, Attr: entity.AttrReview}) //repro:alloc-ok mentions keeps its steady-state capacity across pages
			}
		}
	}
	return s.mentions
}

// onText receives one decoded text run from the streaming visitor,
// appends its whitespace-collapsed form to the page text, and feeds the
// newly appended bytes to the automaton and the review scorer.
func (s *Session) onText(run []byte) {
	old := len(s.text)
	s.text = appendCollapsed(s.text, run, &s.started, &s.pending)
	// Node.Text joins text nodes with a space before collapsing; defer it
	// so a trailing separator never materializes.
	s.pending = true
	chunk := s.text[old:]
	if len(chunk) == 0 {
		return
	}
	s.acState = s.ac.Feed(s.acState, chunk, old, s.emitF)
	if s.scorer != nil {
		s.scorer.Write(chunk)
	}
}

// onHit receives one automaton hit at absolute collapsed-text offset end.
func (s *Session) onHit(pi int32, end int) {
	v := s.ac.Value(pi)
	if s.x.db.Domain == entity.Books {
		if v == isbnMarkerValue {
			s.markers = append(s.markers, end-4)
			return
		}
		s.cands = append(s.cands, isbnCand{lo: end - s.ac.PatternLen(pi), hi: end, id: v})
		return
	}
	if s.seenKey[v] == s.gen {
		return
	}
	s.seenKey[v] = s.gen
	s.phoneIDs = append(s.phoneIDs, v)
}

// onAnchor resolves one anchor href against the homepage index.
func (s *Session) onAnchor(href []byte) {
	s.urlBuf = entity.AppendCanonicalURL(s.urlBuf[:0], href)
	id, ok := s.x.db.LookupHomepageKey(s.urlBuf)
	if !ok {
		return
	}
	if s.seenHome[id] == s.gen {
		return
	}
	s.seenHome[id] = s.gen
	s.homeIDs = append(s.homeIDs, id)
}

// markerNear reports whether any "ISBN" marker starting at position m
// satisfies the §3.2 window rule for candidate c: m >= lo-isbnWindow and
// the marker's end within isbnWindow past the candidate (the same
// acceptance region the regex oracle checks on the joined string).
func (s *Session) markerNear(c isbnCand) bool {
	for _, m := range s.markers {
		if m >= c.lo-isbnWindow && m+4 <= c.hi+isbnWindow {
			return true
		}
	}
	return false
}

// appendCollapsed appends run to dst with whitespace runs collapsed to
// single spaces, exactly reproducing strings.Join(strings.Fields(x), " ")
// semantics incrementally (unicode whitespace; no leading or trailing
// separator). started/pending carry the collapse state across runs.
func appendCollapsed(dst, run []byte, started, pending *bool) []byte {
	for i := 0; i < len(run); {
		c := run[i]
		if c < utf8.RuneSelf {
			if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
				*pending = true
				i++
				continue
			}
			if *started && *pending {
				dst = append(dst, ' ')
			}
			*pending = false
			*started = true
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(run[i:])
		if unicode.IsSpace(r) {
			*pending = true
			i += size
			continue
		}
		if *started && *pending {
			dst = append(dst, ' ')
		}
		*pending = false
		*started = true
		dst = append(dst, run[i:i+size]...)
		i += size
	}
	return dst
}

// Trainer feeds streamed training pages into a Naïve-Bayes model
// without materializing per-page text strings: pages stream through the
// visitor into a reused collapsed-text buffer, and only vocabulary-new
// tokens allocate.
type Trainer struct {
	nb      *classify.NaiveBayes
	str     htmlx.Streamer
	text    []byte
	started bool
	pending bool
	onTextF func([]byte)
}

// NewTrainer returns a Trainer around a fresh model with the given
// Laplace smoothing parameter (<= 0 defaults to 1).
func NewTrainer(alpha float64) *Trainer {
	t := &Trainer{nb: classify.NewNaiveBayes(alpha)}
	t.onTextF = func(run []byte) {
		t.text = appendCollapsed(t.text, run, &t.started, &t.pending)
		t.pending = true
	}
	return t
}

// Add trains on one labeled HTML page.
func (t *Trainer) Add(html []byte, isReview bool) {
	t.text = t.text[:0]
	t.started = false
	t.pending = false
	t.str.Stream(html, t.onTextF, nil)
	t.nb.TrainBytes(t.text, isReview)
}

// Classifier returns the trained model, erroring unless both classes
// were seen.
func (t *Trainer) Classifier() (*classify.NaiveBayes, error) {
	if !t.nb.Trained() {
		return nil, fmt.Errorf("extract: training data must include both classes")
	}
	return t.nb, nil
}
