package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/synth"
)

func smallWeb(t *testing.T, d entity.Domain) *synth.Web {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		Domain: d, Entities: 200, DirectoryHosts: 300, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWriteWARCAndExtractRoundTrip: a crawl written to WARC and
// extracted back yields exactly the model's indexes — sites, entity
// sets, page counts and coverage denominators — for an ISBN domain, a
// phone domain, and restaurants with the study's review classifier.
// Gzipped records run on banks only: a gzip writer per record makes the
// review-heavy restaurants crawl take seconds to write.
func TestWriteWARCAndExtractRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		d  entity.Domain
		gz bool
	}{{entity.Books, false}, {entity.Banks, false}, {entity.Banks, true}, {entity.Restaurants, false}} {
		w := smallWeb(t, tc.d)
		var clf *classify.NaiveBayes
		if tc.d == entity.Restaurants {
			var err error
			if clf, err = NewReviewClassifier(w, 17); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		cdx, err := WriteWARC(w, &buf, tc.gz)
		if err != nil {
			t.Fatal(err)
		}
		if len(cdx.Entries) == 0 {
			t.Fatal("empty capture index")
		}
		idxs, pages, err := ExtractWARC(bytes.NewReader(buf.Bytes()), w.DB, clf)
		if err != nil {
			t.Fatal(err)
		}
		if pages != len(cdx.Entries) {
			t.Errorf("%s gz=%v: processed %d pages, cdx has %d", tc.d, tc.gz, pages, len(cdx.Entries))
		}
		direct := w.DirectIndexes()
		if len(idxs) != len(direct) {
			t.Fatalf("%s gz=%v: %d indexes, want %d", tc.d, tc.gz, len(idxs), len(direct))
		}
		for a, want := range direct {
			if got := idxs[a]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s gz=%v: WARC-extracted %s index differs from the model", tc.d, tc.gz, a)
			}
		}
	}
}

// TestExtractWARCNeedsReviewClassifier: restaurants without a review
// classifier is an error, as it is for synth.Web.ExtractIndexes, not a
// silently empty review index.
func TestExtractWARCNeedsReviewClassifier(t *testing.T) {
	w := smallWeb(t, entity.Restaurants)
	var buf bytes.Buffer
	if _, err := WriteWARC(w, &buf, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExtractWARC(bytes.NewReader(buf.Bytes()), w.DB, nil); err == nil {
		t.Fatal("restaurants extraction without a classifier should fail")
	}
}

func TestWriteWARCDeterministic(t *testing.T) {
	render := func() []byte {
		w := smallWeb(t, entity.Schools)
		var buf bytes.Buffer
		if _, err := WriteWARC(w, &buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("WARC output not byte-reproducible")
	}
}

func TestExtractWARCGarbage(t *testing.T) {
	w := smallWeb(t, entity.Banks)
	if _, _, err := ExtractWARC(bytes.NewReader([]byte("not a warc")), w.DB, nil); err == nil {
		t.Error("garbage input should fail")
	}
}

func TestExtractWARCCDXHostsMatchSites(t *testing.T) {
	w := smallWeb(t, entity.Hotels)
	var buf bytes.Buffer
	cdx, err := WriteWARC(w, &buf, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for i := range w.Sites {
		hosts[w.Sites[i].Host] = true
	}
	for _, h := range cdx.Hosts() {
		if !hosts[h] {
			t.Errorf("cdx host %q not a model site", h)
		}
	}
}
