package core

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/entity"
	"repro/internal/extract"
	"repro/internal/synth"
)

// Web returns (building if needed) the synthetic web for a domain.
// Distinct domains build concurrently; duplicate callers share one
// build.
func (s *Study) Web(d entity.Domain) (*synth.Web, error) {
	return s.webs.Get(d, func() (*synth.Web, error) {
		s.builds.webs.Add(1)
		defer timeBuild(obsBuildWeb, spanBuildWeb)()
		w, err := synth.Generate(synth.Config{
			Domain:         d,
			Entities:       s.cfg.Entities,
			DirectoryHosts: s.cfg.DirectoryHosts,
			Seed:           s.cfg.Seed ^ domainSalt(d),
		})
		if err != nil {
			return nil, fmt.Errorf("core: generate web for %s: %w", d, err)
		}
		return w, nil
	})
}

// domainSalt decorrelates per-domain generation under one master seed.
func domainSalt(d entity.Domain) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(d); i++ {
		h ^= uint64(d[i])
		h *= 1099511628211
	}
	return h
}

// ReviewClassifier returns the trained review classifier, training it on
// first use from the restaurants web's labeled page generator.
func (s *Study) ReviewClassifier() (*classify.NaiveBayes, error) {
	return s.reviewNB.Get(func() (*classify.NaiveBayes, error) {
		s.builds.classifiers.Add(1)
		defer timeBuild(obsBuildClassifier, spanBuildClassifier)()
		w, err := s.Web(entity.Restaurants)
		if err != nil {
			return nil, err
		}
		return NewReviewClassifier(w, s.cfg.Seed)
	})
}

// NewReviewClassifier trains the review classifier for a restaurants
// web generated under seed. It is the one training recipe (corpus size
// and seed salt) behind Study.ReviewClassifier and cmd/extract, so an
// archive extracted from the command line classifies pages exactly as
// the study does. The labeled corpus streams through the trainer page
// by page; no [][]byte corpus is ever materialized.
func NewReviewClassifier(w *synth.Web, seed uint64) (*classify.NaiveBayes, error) {
	tr := extract.NewTrainer(1)
	w.TrainingCorpus(400, seed^0xc1a551f7, tr.Add)
	nb, err := tr.Classifier()
	if err != nil {
		return nil, fmt.Errorf("core: train review classifier: %w", err)
	}
	return nb, nil
}
